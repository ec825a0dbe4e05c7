#ifndef PPA_BENCH_BENCH_UTIL_H_
#define PPA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "backend/execution_backend.h"
#include "common/status_or.h"
#include "obs/chrome_trace.h"
#include "obs/export.h"
#include "report/experiment_report.h"
#include "report/json.h"
#include "runtime/streaming_job.h"
#include "topology/task_set.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace bench {

/// Recovery cost model calibrated so the simulated latencies land in the
/// same range as the paper's EC2 measurements (see EXPERIMENTS.md):
/// a recovering task reprocesses ~2000 tuples/s, restarting on a standby
/// node costs ~1s, and neighbouring recoveries synchronize with a 250 ms
/// handshake.
inline RecoveryCostModel PaperCostModel() {
  return JobConfig::CheckpointDefaults().recovery;
}

/// Job configuration matching the paper's cluster setup: 5 s heartbeat
/// failure detection, 1 s batches (= the 1 s sliding step), 19 worker
/// nodes (4 source + 15 processing) and 15 standby nodes, CPU cost model
/// calibrated to reproduce Fig. 9's checkpoint-to-processing ratios.
inline JobConfig PaperJobConfig(FtMode mode) {
  JobConfig config = JobConfig::CheckpointDefaults();
  config.ft_mode = mode;
  return config;
}

/// One recovery experiment on the Fig. 6 workload.
struct Fig6Result {
  Duration total_latency;
  Duration active_latency;
  Duration passive_latency;
  /// Checkpoint CPU / processing CPU ratio, averaged over the synthetic
  /// tasks (Fig. 9).
  double checkpoint_cpu_ratio = 0.0;
  /// Metrics snapshot of the run (obs::MetricsToJson); the last
  /// repetition's snapshot when RunFig6 averages over several.
  JsonValue metrics;
  /// Chrome/Perfetto Trace Event Format document of the run (the last
  /// repetition's when averaging). Load in chrome://tracing or
  /// https://ui.perfetto.dev.
  JsonValue chrome_trace;
  /// OF/IC fidelity timeseries sampled during tentative windows
  /// (obs::FidelityTimeseriesToJson; empty array without failures).
  JsonValue fidelity;
};

/// Collects labeled metrics snapshots from benchmark runs and writes them
/// as one JSON document. Constructed with an empty path (the default when
/// the binary was invoked without `--metrics_out`, see bench::Driver),
/// every call is a no-op, so benchmark output is unchanged.
class BenchMetricsSink {
 public:
  BenchMetricsSink() = default;
  explicit BenchMetricsSink(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  /// Records one labeled snapshot (drop-in for a Fig6Result::metrics or
  /// any obs::MetricsToJson / obs::RunProfileToJson value).
  void Add(std::string label, JsonValue snapshot) {
    if (!enabled()) {
      return;
    }
    JsonValue run = JsonValue::Object();
    run.Set("label", std::move(label));
    run.Set("metrics", std::move(snapshot));
    runs_.Append(std::move(run));
  }

  /// Convenience: snapshot a live job's registry.
  void Add(std::string label, const StreamingJob& job) {
    if (enabled()) {
      Add(std::move(label), obs::MetricsToJson(job.metrics()));
    }
  }

  /// Records one labeled snapshot together with its fidelity timeseries
  /// (stored under "fidelity_timeseries" beside "metrics").
  void Add(std::string label, JsonValue snapshot, JsonValue fidelity) {
    if (!enabled()) {
      return;
    }
    JsonValue run = JsonValue::Object();
    run.Set("label", std::move(label));
    run.Set("metrics", std::move(snapshot));
    run.Set("fidelity_timeseries", std::move(fidelity));
    runs_.Append(std::move(run));
  }

  /// Writes {"benchmark":...,"runs":[...]} to the configured path.
  /// Returns false (after printing to stderr) if the file cannot be
  /// written; true otherwise, including when disabled.
  bool Write(std::string_view benchmark) {
    if (!enabled()) {
      return true;
    }
    JsonValue doc = JsonValue::Object();
    doc.Set("benchmark", std::string(benchmark));
    doc.Set("runs", std::move(runs_));
    runs_ = JsonValue::Array();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n", path_.c_str());
      return false;
    }
    const std::string text = doc.Pretty();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("metrics snapshot written to %s\n", path_.c_str());
    return true;
  }

 private:
  std::string path_;
  JsonValue runs_ = JsonValue::Array();
};

/// Captures one JSON document from a benchmark run (a Chrome/Perfetto
/// trace, a flight-record dump) and writes it to the configured path. One
/// document holds one timeline or post-mortem, so the first captured run
/// wins; constructed with an empty path (the flag was absent, see
/// bench::Driver) every call is a no-op. Write() falls back to the
/// `fallback` document when no run captured anything, so the flag always
/// produces a valid file.
class JsonDocumentSink {
 public:
  JsonDocumentSink() = default;
  /// `label` names the document in the stdout/stderr messages; `hint`
  /// follows the path in the "written" line.
  JsonDocumentSink(std::string path, std::string label, JsonValue fallback,
                   std::string hint = "")
      : path_(std::move(path)),
        label_(std::move(label)),
        hint_(std::move(hint)),
        document_(std::move(fallback)) {}

  bool enabled() const { return !path_.empty(); }

  /// Keeps `document` if none was captured yet.
  void Capture(JsonValue document) {
    if (enabled() && !captured_) {
      document_ = std::move(document);
      captured_ = true;
    }
  }

  /// Writes the captured document (or the fallback) to the configured
  /// path. Returns false after printing to stderr on filesystem errors;
  /// true otherwise, including when disabled.
  bool Write() {
    if (!enabled()) {
      return true;
    }
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s to %s\n", label_.c_str(),
                   path_.c_str());
      return false;
    }
    const std::string text = document_.Pretty();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("%s written to %s%s\n", label_.c_str(), path_.c_str(),
                hint_.c_str());
    return true;
  }

 private:
  std::string path_;
  std::string label_;
  std::string hint_;
  bool captured_ = false;
  JsonValue document_;
};

struct Fig6Options {
  FtMode mode = FtMode::kCheckpoint;
  /// Per-source-task rate (the paper's 1000 / 2000 tuples/s).
  double rate_per_task = 1000.0;
  /// Window interval in batches (the paper's 10 s / 30 s).
  int64_t window_batches = 10;
  Duration checkpoint_interval = Duration::Seconds(15);
  Duration replica_sync_interval = Duration::Seconds(5);
  /// Correlated failure (all 15 synthetic nodes) vs a single node.
  bool correlated = false;
  /// Which synthetic node index (0..14) fails in the single-node case.
  int single_node_index = 4;
  /// PPA: subset of tasks with active replicas (nullptr = per mode).
  const TaskSet* active_set = nullptr;
  double fail_at_seconds = 40.0;
  double run_for_seconds = 70.0;
  /// Skip the failure entirely (Fig. 9 measures steady-state CPU).
  bool inject_failure = true;
  /// Latencies are averaged over this many failure instants spread across
  /// the technique's relevant period (checkpoint age / replica sync age is
  /// otherwise sampled at a single arbitrary phase).
  int repetitions = 3;
  /// Execution substrate the experiment runs on (bench::Driver's
  /// --backend flag; virtual-time results are backend-independent by the
  /// parity contract, but wall-clock cost is not).
  backend::BackendKind backend = backend::BackendKind::kSim;
};

namespace internal {

/// Runs one instance of the Fig. 6 experiment with a fixed failure time.
inline StatusOr<Fig6Result> RunFig6Once(const Fig6Options& options) {
  PPA_ASSIGN_OR_RETURN(
      SyntheticRecoveryWorkload workload,
      MakeSyntheticRecoveryWorkload(options.rate_per_task,
                                    options.window_batches));
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(options.backend);
  JobConfig config = PaperJobConfig(options.mode);
  config.checkpoint_interval = options.checkpoint_interval;
  config.replica_sync_interval = options.replica_sync_interval;
  config.window_batches = options.window_batches;
  StreamingJob job(workload.topo, config, JobRuntimeDeps(be.get()));
  PPA_RETURN_IF_ERROR(BindSyntheticRecoveryWorkload(workload, &job));
  PPA_ASSIGN_OR_RETURN(std::vector<int> synthetic_nodes,
                       PlaceSyntheticRecoveryWorkload(workload, &job));
  if (options.active_set != nullptr) {
    PPA_RETURN_IF_ERROR(job.SetActiveReplicaSet(*options.active_set));
  }
  PPA_RETURN_IF_ERROR(job.Start());
  be->RunUntil(TimePoint::Zero() +
               Duration::Seconds(options.fail_at_seconds));
  if (options.inject_failure) {
    if (options.correlated) {
      for (int node : synthetic_nodes) {
        PPA_RETURN_IF_ERROR(job.InjectNodeFailure(node));
      }
    } else {
      PPA_RETURN_IF_ERROR(job.InjectNodeFailure(
          synthetic_nodes[static_cast<size_t>(options.single_node_index)]));
    }
  }
  be->RunUntil(TimePoint::Zero() +
               Duration::Seconds(options.run_for_seconds));

  Fig6Result result;
  if (options.inject_failure) {
    if (job.recovery_reports().empty()) {
      return Internal("no recovery report produced");
    }
    const RecoveryReport& report = job.recovery_reports()[0];
    result.total_latency = report.TotalLatency();
    result.active_latency = report.ActiveLatency();
    result.passive_latency = report.PassiveLatency();
  }
  double ratio = 0.0;
  int counted = 0;
  for (OperatorId op : {workload.o1, workload.o2, workload.o3, workload.o4}) {
    for (TaskId t : workload.topo.op(op).tasks) {
      if (job.ProcessingCostUs(t) > 0) {
        ratio += job.CheckpointCostUs(t) / job.ProcessingCostUs(t);
        ++counted;
      }
    }
  }
  result.checkpoint_cpu_ratio = counted > 0 ? ratio / counted : 0.0;
  result.metrics = obs::MetricsToJson(job.metrics());
  result.chrome_trace = JobChromeTraceToJson(job);
  const Topology* topo = &job.topology();
  result.fidelity = obs::FidelityTimeseriesToJson(
      job.fidelity_timeseries(), [topo](int64_t t) {
        if (t < 0 || t >= topo->num_tasks()) {
          return std::to_string(t);
        }
        return topo->TaskLabel(static_cast<TaskId>(t));
      });
  return result;
}

}  // namespace internal

/// Runs the Fig. 6 synthetic recovery workload, averaging the latencies
/// over `repetitions` failure phases.
inline StatusOr<Fig6Result> RunFig6(const Fig6Options& options) {
  if (!options.inject_failure || options.repetitions <= 1) {
    return internal::RunFig6Once(options);
  }
  // The period whose phase matters for this technique.
  Duration period = options.checkpoint_interval;
  if (options.mode == FtMode::kActiveReplication) {
    period = options.replica_sync_interval;
  } else if (options.mode == FtMode::kSourceReplay) {
    period = Duration::Seconds(5);  // Detection interval.
  }
  Fig6Result avg;
  double total = 0, active = 0, passive = 0, ratio = 0;
  for (int k = 0; k < options.repetitions; ++k) {
    Fig6Options rep = options;
    rep.fail_at_seconds = options.fail_at_seconds +
                          period.seconds() * (k + 0.33) /
                              options.repetitions;
    rep.run_for_seconds = options.run_for_seconds + period.seconds();
    PPA_ASSIGN_OR_RETURN(Fig6Result one, internal::RunFig6Once(rep));
    total += one.total_latency.seconds();
    active += one.active_latency.seconds();
    passive += one.passive_latency.seconds();
    ratio += one.checkpoint_cpu_ratio;
    avg.metrics = std::move(one.metrics);
    avg.chrome_trace = std::move(one.chrome_trace);
    avg.fidelity = std::move(one.fidelity);
  }
  const double n = options.repetitions;
  avg.total_latency = Duration::Seconds(total / n);
  avg.active_latency = Duration::Seconds(active / n);
  avg.passive_latency = Duration::Seconds(passive / n);
  avg.checkpoint_cpu_ratio = ratio / n;
  return avg;
}

/// Prints a markdown-ish table separator line for `widths`.
inline void PrintRule(const std::vector<int>& widths) {
  for (int w : widths) {
    std::printf("+");
    for (int i = 0; i < w + 2; ++i) {
      std::printf("-");
    }
  }
  std::printf("+\n");
}

}  // namespace bench
}  // namespace ppa

#endif  // PPA_BENCH_BENCH_UTIL_H_
