#ifndef PPA_BENCH_ACCURACY_UTIL_H_
#define PPA_BENCH_ACCURACY_UTIL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "backend/execution_backend.h"
#include "bench/bench_util.h"
#include "common/status_or.h"
#include "runtime/streaming_job.h"
#include "workloads/accuracy.h"

namespace ppa {
namespace bench {

/// How a tentative-accuracy experiment is run and evaluated.
struct AccuracyExperiment {
  /// Builds and binds a job on the given backend; must be repeatable.
  std::function<std::unique_ptr<StreamingJob>(backend::ExecutionBackend*)>
      make_job;
  /// Accuracy functional: (test records, reference records, from, to).
  std::function<double(const std::vector<SinkRecord>&,
                       const std::vector<SinkRecord>&, int64_t, int64_t)>
      accuracy;
  double fail_at_seconds = 25.2;
  double run_for_seconds = 110.0;
  /// Tentative-output measurement starts this many batches after detection
  /// (stale pre-failure window state keeps accuracy artificially high
  /// until it expires).
  int64_t stale_grace_batches = 16;
};

/// Outcome of one tentative-accuracy measurement. Carrying the failure
/// run's observability documents (instead of writing them to sinks
/// in-place) keeps the measurement free of shared state, so independent
/// measurements can run on parallel workers and be recorded in a
/// deterministic order afterwards.
struct AccuracyResult {
  /// Tentative accuracy over the measured window.
  double accuracy = 0.0;
  /// Metrics snapshot of the failure run (obs::MetricsToJson).
  JsonValue metrics;
  /// Chrome/Perfetto trace of the failure run (JobChromeTraceToJson).
  JsonValue chrome_trace;
};

/// Measured tentative accuracy of `plan` under a correlated failure of
/// every primary (sources included), against a failure-free reference
/// run.
inline StatusOr<AccuracyResult> MeasureTentativeAccuracy(
    const AccuracyExperiment& experiment, const TaskSet& plan) {
  // Reference run.
  std::unique_ptr<backend::ExecutionBackend> clean_be =
      backend::MakeBackend(backend::BackendKind::kSim);
  std::unique_ptr<StreamingJob> clean = experiment.make_job(clean_be.get());
  PPA_RETURN_IF_ERROR(clean->Start());
  clean_be->RunUntil(TimePoint::Zero() +
                     Duration::Seconds(experiment.run_for_seconds));

  // Failure run.
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend::BackendKind::kSim);
  std::unique_ptr<StreamingJob> job = experiment.make_job(be.get());
  PPA_RETURN_IF_ERROR(job->SetActiveReplicaSet(plan));
  PPA_RETURN_IF_ERROR(job->Start());
  be->RunUntil(TimePoint::Zero() +
               Duration::Seconds(experiment.fail_at_seconds));
  PPA_RETURN_IF_ERROR(job->InjectCorrelatedFailure(/*include_sources=*/true));
  be->RunUntil(TimePoint::Zero() +
               Duration::Seconds(experiment.run_for_seconds));
  if (job->recovery_reports().empty()) {
    return Internal("no recovery report");
  }
  const RecoveryReport& report = job->recovery_reports()[0];
  const int64_t batch_us = job->config().batch_interval.micros();
  const int64_t detect_batch = report.detection_time.micros() / batch_us;
  const int64_t passive_end =
      (report.detection_time + report.PassiveLatency()).micros() / batch_us;
  const int64_t from = detect_batch + experiment.stale_grace_batches;
  const int64_t to =
      std::min<int64_t>(passive_end - 1,
                        static_cast<int64_t>(experiment.run_for_seconds) - 2);
  if (to < from) {
    return Internal("tentative window too short; slow down recovery");
  }
  const auto timely =
      FilterTimely(job->sink_records(), job->config().batch_interval, 0);
  AccuracyResult result;
  result.accuracy =
      experiment.accuracy(timely, clean->sink_records(), from, to);
  result.metrics = obs::MetricsToJson(job->metrics());
  result.chrome_trace = JobChromeTraceToJson(*job);
  return result;
}

}  // namespace bench
}  // namespace ppa

#endif  // PPA_BENCH_ACCURACY_UTIL_H_
