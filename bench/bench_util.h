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
#include "planner/structure_aware_planner.h"
#include "report/experiment_report.h"
#include "report/json.h"
#include "runtime/streaming_job.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace bench {

/// Job configuration matching the paper's cluster setup: 5 s heartbeat
/// failure detection, 1 s batches (= the 1 s sliding step), 19 worker
/// nodes (4 source + 15 processing) and 15 standby nodes, CPU cost model
/// calibrated to reproduce Fig. 9's checkpoint-to-processing ratios.
inline JobConfig PaperJobConfig(FtMode mode) {
  JobConfig config = JobConfig::CheckpointDefaults();
  config.ft_mode = mode;
  return config;
}

/// Writes `document` pretty-printed, newline-terminated, to `path`
/// (truncates). A failed open, write or close is an Internal error, so a
/// full disk is reported instead of leaving a truncated file behind.
inline Status WriteJsonDocument(const std::string& path,
                                const JsonValue& document) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Internal("cannot open '" + path + "' for writing");
  }
  const std::string text = document.Pretty() + "\n";
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  if (std::fclose(f) != 0 || written != text.size()) {
    return Internal("short write to '" + path + "'");
  }
  return OkStatus();
}

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
  /// written in full; true otherwise, including when disabled.
  bool Write(std::string_view benchmark) {
    if (!enabled()) {
      return true;
    }
    JsonValue doc = JsonValue::Object();
    doc.Set("benchmark", std::string(benchmark));
    doc.Set("runs", std::move(runs_));
    runs_ = JsonValue::Array();
    if (Status written = WriteJsonDocument(path_, doc); !written.ok()) {
      std::fprintf(stderr, "cannot write metrics to %s: %s\n", path_.c_str(),
                   written.ToString().c_str());
      return false;
    }
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
  /// path. Returns false after printing to stderr when the file cannot be
  /// written in full; true otherwise, including when disabled.
  bool Write() {
    if (!enabled()) {
      return true;
    }
    if (Status written = WriteJsonDocument(path_, document_); !written.ok()) {
      std::fprintf(stderr, "cannot write %s to %s: %s\n", label_.c_str(),
                   path_.c_str(), written.ToString().c_str());
      return false;
    }
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

/// The Fig. 6 recovery drill: the synthetic workload, placed the paper's
/// way, runs to `fail_at_seconds`, loses one synthetic node or all 15 of
/// them, and runs on to `run_for_seconds`.
struct Fig6Options {
  /// Job configuration (PaperJobConfig plus the caller's intervals).
  /// Its `window_batches` is also the synthetic operators' window (the
  /// paper's 10 s / 30 s).
  JobConfig config = PaperJobConfig(FtMode::kCheckpoint);
  /// Per-source-task rate (the paper's 1000 / 2000 tuples/s).
  double rate_per_task = 1000.0;
  /// Correlated failure (all 15 synthetic nodes) vs a single node.
  bool correlated = false;
  /// Which synthetic node index (0..14) fails in the single-node case.
  int single_node_index = 4;
  /// PPA: share of the tasks the structure-aware planner replicates
  /// actively (budget = share x task count, rounded down; the paper's
  /// PPA-1.0 / PPA-0.5 / PPA-0). Negative: no plan is set.
  double replica_share = -1.0;
  double fail_at_seconds = 40.0;
  double run_for_seconds = 70.0;
  /// Skip the failure entirely (Fig. 9 measures steady-state CPU).
  bool inject_failure = true;
  /// RunFig6 averages the latencies over this many failure instants
  /// spread across the technique's relevant period (checkpoint age /
  /// replica sync age is otherwise sampled at a single arbitrary phase).
  int repetitions = 3;
};

/// One finished run of the Fig. 6 drill, kept whole so callers read what
/// they need. The job is declared after the backend it runs on, so it is
/// destroyed first.
struct Fig6Run {
  SyntheticRecoveryWorkload workload;
  std::unique_ptr<backend::ExecutionBackend> backend;
  std::unique_ptr<StreamingJob> job;
};

/// Runs the drill once, at `options.fail_at_seconds`, on a fresh backend
/// of kind `backend_kind` (bench::Driver::backend_kind()). The only code
/// in bench/ that builds, places, fails and runs the Fig. 6 job.
inline StatusOr<Fig6Run> RunFig6Drill(const Fig6Options& options,
                                      backend::BackendKind backend_kind) {
  const JobConfig& config = options.config;
  Fig6Run run;
  PPA_ASSIGN_OR_RETURN(run.workload,
                       MakeSyntheticRecoveryWorkload(options.rate_per_task,
                                                     config.window_batches));
  run.backend = backend::MakeBackend(backend_kind);
  run.job = std::make_unique<StreamingJob>(run.workload.topo, config,
                                           JobRuntimeDeps(run.backend.get()));
  StreamingJob& job = *run.job;
  PPA_RETURN_IF_ERROR(BindSyntheticRecoveryWorkload(run.workload, &job));
  PPA_ASSIGN_OR_RETURN(std::vector<int> synthetic_nodes,
                       PlaceSyntheticRecoveryWorkload(run.workload, &job));
  if (options.replica_share >= 0) {
    const Topology& topo = run.workload.topo;
    const int budget =
        static_cast<int>(options.replica_share * topo.num_tasks());
    StructureAwarePlanner planner;
    PPA_ASSIGN_OR_RETURN(ReplicationPlan plan,
                         planner.Plan(PlanRequest(topo, budget)));
    PPA_RETURN_IF_ERROR(job.SetActiveReplicaSet(plan.replicated));
  }
  PPA_RETURN_IF_ERROR(job.Start());
  run.backend->RunUntil(TimePoint::Zero() +
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
  run.backend->RunUntil(TimePoint::Zero() +
                        Duration::Seconds(options.run_for_seconds));
  return run;
}

/// What the paper's recovery figures read from one drill.
struct Fig6Result {
  /// Latencies of the run's first recovery (zero without a failure).
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

/// The Fig6Result of one finished drill.
inline Fig6Result Fig6ResultOf(const Fig6Run& run) {
  const StreamingJob& job = *run.job;
  const SyntheticRecoveryWorkload& workload = run.workload;
  Fig6Result result;
  if (!job.recovery_reports().empty()) {
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
  result.fidelity = obs::FidelityTimeseriesToJson(
      job.fidelity_timeseries(), MakeTaskLabeler(&job.topology()));
  return result;
}

/// Runs the drill on `backend_kind`, averaging the latencies and the CPU
/// ratio over `options.repetitions` failure phases. A run that injected a
/// failure but recorded no recovery is an Internal error.
inline StatusOr<Fig6Result> RunFig6(const Fig6Options& options,
                                    backend::BackendKind backend_kind) {
  auto run_once = [&](const Fig6Options& rep) -> StatusOr<Fig6Result> {
    PPA_ASSIGN_OR_RETURN(Fig6Run run, RunFig6Drill(rep, backend_kind));
    if (rep.inject_failure && run.job->recovery_reports().empty()) {
      return Internal("no recovery report produced");
    }
    return Fig6ResultOf(run);
  };
  if (!options.inject_failure || options.repetitions <= 1) {
    return run_once(options);
  }
  // The period whose phase matters for this technique.
  Duration period = options.config.checkpoint_interval;
  if (options.config.ft_mode == FtMode::kActiveReplication) {
    period = options.config.replica_sync_interval;
  } else if (options.config.ft_mode == FtMode::kSourceReplay) {
    period = options.config.detection_interval;
  }
  Fig6Result avg;
  double total = 0, active = 0, passive = 0, ratio = 0;
  for (int k = 0; k < options.repetitions; ++k) {
    Fig6Options rep = options;
    rep.fail_at_seconds = options.fail_at_seconds +
                          period.seconds() * (k + 0.33) /
                              options.repetitions;
    rep.run_for_seconds = options.run_for_seconds + period.seconds();
    PPA_ASSIGN_OR_RETURN(Fig6Result one, run_once(rep));
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

}  // namespace bench
}  // namespace ppa

#endif  // PPA_BENCH_BENCH_UTIL_H_
