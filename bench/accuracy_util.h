#ifndef PPA_BENCH_ACCURACY_UTIL_H_
#define PPA_BENCH_ACCURACY_UTIL_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "backend/execution_backend.h"
#include "bench/bench_util.h"
#include "common/status_or.h"
#include "runtime/streaming_job.h"
#include "topology/task_set.h"
#include "workloads/accuracy.h"
#include "workloads/incident.h"
#include "workloads/topk.h"

namespace ppa {
namespace bench {

/// How a tentative-accuracy experiment is run and evaluated.
struct AccuracyExperiment {
  /// The query's topology, which plans are made for.
  Topology topo;
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

/// Job configuration of the Q1/Q2 accuracy experiments (Figs. 12-13):
/// the paper's PPA setup on 25 worker and 25 standby nodes with 10 s
/// checkpoints, and slow passive recovery, so the tentative phase spans
/// the whole measurement window.
inline JobConfig AccuracyJobConfig() {
  JobConfig config = PaperJobConfig(FtMode::kPpa);
  config.num_worker_nodes = 25;
  config.num_standby_nodes = 25;
  config.checkpoint_interval = Duration::Seconds(10);
  config.recovery.replay_rate_tuples_per_sec = 150.0;
  config.recovery.task_restart_delay = Duration::Seconds(10);
  return config;
}

/// Q1: the top-100 aggregate query over the WorldCup-style log, scored
/// per batch. `parallelism` shrinks the query for planners that search
/// exhaustively.
inline AccuracyExperiment Q1Experiment(
    const TopKParallelism& parallelism = {}) {
  WorldCupSource::Options source;
  source.tuples_per_batch_per_task = 500;
  source.url_population = 1000;
  StatusOr<TopKWorkload> q1 = MakeTopKWorkload(
      source, /*count_window_batches=*/15, /*k=*/100, parallelism);
  PPA_CHECK_OK(q1.status());
  auto workload = std::make_shared<const TopKWorkload>(*std::move(q1));
  AccuracyExperiment experiment;
  experiment.topo = workload->topo;
  experiment.make_job = [workload](backend::ExecutionBackend* be) {
    auto job = std::make_unique<StreamingJob>(
        workload->topo, AccuracyJobConfig(), JobRuntimeDeps(be));
    PPA_CHECK_OK(BindTopKWorkload(*workload, job.get()));
    return job;
  };
  experiment.accuracy = PerBatchSetAccuracy;
  experiment.stale_grace_batches = 16;  // Top-k freshness window + 1.
  return experiment;
}

/// Q2: the incident-detection join, scored on the distinct incidents
/// reported. `parallelism` as for Q1Experiment.
inline AccuracyExperiment Q2Experiment(
    const IncidentParallelism& parallelism = {}) {
  IncidentSchedule::Options schedule_options;
  schedule_options.num_segments = 300;
  schedule_options.num_users = 30000;
  StatusOr<IncidentWorkload> q2 = MakeIncidentWorkload(
      schedule_options, /*location_rate_per_task=*/1000, parallelism);
  PPA_CHECK_OK(q2.status());
  struct Query {
    IncidentWorkload workload;
    IncidentSchedule schedule;
  };
  auto query = std::make_shared<const Query>(
      Query{*std::move(q2), IncidentSchedule(schedule_options)});
  AccuracyExperiment experiment;
  experiment.topo = query->workload.topo;
  experiment.make_job = [query](backend::ExecutionBackend* be) {
    auto job = std::make_unique<StreamingJob>(
        query->workload.topo, AccuracyJobConfig(), JobRuntimeDeps(be));
    PPA_CHECK_OK(
        BindIncidentWorkload(query->workload, &query->schedule, job.get()));
    return job;
  };
  experiment.accuracy = DistinctSetAccuracy;
  experiment.stale_grace_batches = 4;  // Join speed-freshness window + 1.
  return experiment;
}

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
/// run; both runs use a fresh backend of kind `backend_kind`
/// (bench::Driver::backend_kind()).
inline StatusOr<AccuracyResult> MeasureTentativeAccuracy(
    const AccuracyExperiment& experiment, const TaskSet& plan,
    backend::BackendKind backend_kind) {
  // Reference run.
  std::unique_ptr<backend::ExecutionBackend> clean_be =
      backend::MakeBackend(backend_kind);
  std::unique_ptr<StreamingJob> clean = experiment.make_job(clean_be.get());
  PPA_RETURN_IF_ERROR(clean->Start());
  clean_be->RunUntil(TimePoint::Zero() +
                     Duration::Seconds(experiment.run_for_seconds));

  // Failure run.
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend_kind);
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
