// Recovery-mode head-to-head: exact PPA vs bounded-error approximate
// fault tolerance (src/af) vs the hybrid of both, on the Fig. 6 synthetic
// recovery workload under the Fig. 7 single-node and Fig. 8 correlated
// failure drills. Each cell runs the same topology, placement, failure
// time, and rate; only the recovery mode differs:
//   ppa     FtMode::kPpa with the structure-aware half-budget plan and
//           exact checkpoints everywhere (the paper's configuration).
//   approx  FtMode::kCheckpoint with RecoveryMode::kApprox: every task
//           may thin checkpoints within the error budget and recover by
//           fast-forwarding over the certified gap.
//   hybrid  FtMode::kPpa + RecoveryMode::kHybrid: the planner-selected
//           half stays exact behind active replicas; the rest thins.
// Deterministic counters (events_processed, sink_records, recoveries,
// checkpoint_bytes, checkpoints_skipped) gate the perf trajectory via
// tools/bench_diff; recovery latency, fidelity floor, and certificate
// stats are report-only context.
//
// Usage: mode_head_to_head [--out <file>] [--no_wall] [driver flags]
//   --out <file>  where to write the JSON report
//                 (default BENCH_mode_head_to_head.json)
//   --no_wall     omit wall-clock fields, making the report byte-identical
//                 across machines and --jobs counts (the CI determinism
//                 check compares two such runs)
//
// The binary self-checks the headline claim: on every correlated-drill
// rate, approx must persist strictly fewer checkpoint bytes than ppa
// (exit 1 otherwise) — thinning that saves nothing is a bug, not a mode.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "af/error_budget.h"
#include "backend/execution_backend.h"
#include "bench/driver.h"
#include "common/wall_clock.h"
#include "planner/structure_aware_planner.h"
#include "report/experiment_report.h"
#include "runtime/streaming_job.h"
#include "workloads/synthetic_recovery.h"

namespace {

using namespace ppa;

constexpr double kFailAtSeconds = 40.0;
constexpr double kRunForSeconds = 70.0;
constexpr int64_t kWindowBatches = 10;

struct ModeRow {
  const char* label;
  FtMode ft_mode;
  af::RecoveryMode recovery_mode;
};

constexpr ModeRow kModes[] = {
    {"ppa", FtMode::kPpa, af::RecoveryMode::kPpa},
    {"approx", FtMode::kCheckpoint, af::RecoveryMode::kApprox},
    {"hybrid", FtMode::kPpa, af::RecoveryMode::kHybrid},
};

struct CellSpec {
  const ModeRow* mode = nullptr;
  bool correlated = false;
  double rate = 1000.0;
};

struct CellResult {
  int64_t events_processed = 0;
  int64_t sink_records = 0;
  int64_t recoveries = 0;
  int64_t checkpoint_bytes = 0;
  int64_t checkpoints_skipped = 0;
  int64_t approx_recoveries = 0;
  int64_t forfeited_records = 0;
  double max_certified_loss = 0.0;
  double recovery_latency_s = 0.0;
  double min_output_fidelity = 1.0;
  double wall_seconds = 0.0;
  std::string error;
};

CellResult RunCell(const CellSpec& spec, backend::BackendKind backend_kind) {
  CellResult result;
  auto fail = [&result](const Status& status) {
    result.error = status.ToString();
    return result;
  };

  StatusOr<SyntheticRecoveryWorkload> workload =
      MakeSyntheticRecoveryWorkload(spec.rate, kWindowBatches);
  if (!workload.ok()) {
    return fail(workload.status());
  }
  const double wall_start = WallClockSeconds();
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend_kind);
  JobConfig config = JobConfig::CheckpointDefaults();
  config.ft_mode = spec.mode->ft_mode;
  config.recovery_mode = spec.mode->recovery_mode;
  config.window_batches = kWindowBatches;
  // A budget generous enough that steady-state skips actually happen at
  // these rates, while the certified-loss cap still gates which task sets
  // may be at risk simultaneously.
  config.error_budget.task_divergence_records = 2'000'000;
  config.error_budget.job_divergence_records = 20'000'000;
  config.error_budget.max_certified_loss = 0.9;

  StreamingJob job(workload->topo, config, JobRuntimeDeps(be.get()));
  if (Status s = BindSyntheticRecoveryWorkload(*workload, &job); !s.ok()) {
    return fail(s);
  }
  StatusOr<std::vector<int>> synthetic_nodes =
      PlaceSyntheticRecoveryWorkload(*workload, &job);
  if (!synthetic_nodes.ok()) {
    return fail(synthetic_nodes.status());
  }
  if (spec.mode->ft_mode == FtMode::kPpa) {
    // Both ppa and hybrid replicate the same structure-aware half-budget
    // plan, so the hybrid column isolates what thinning the *other* half
    // buys.
    StructureAwarePlanner planner;
    StatusOr<ReplicationPlan> plan = planner.Plan(
        PlanRequest(workload->topo, workload->topo.num_tasks() / 2));
    if (!plan.ok()) {
      return fail(plan.status());
    }
    if (Status s = job.SetActiveReplicaSet(plan->replicated); !s.ok()) {
      return fail(s);
    }
  }
  if (Status s = job.Start(); !s.ok()) {
    return fail(s);
  }
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(kFailAtSeconds));
  if (spec.correlated) {
    for (int node : *synthetic_nodes) {
      if (Status s = job.InjectNodeFailure(node); !s.ok()) {
        return fail(s);
      }
    }
  } else {
    if (Status s = job.InjectNodeFailure((*synthetic_nodes)[4]); !s.ok()) {
      return fail(s);
    }
  }
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(kRunForSeconds));

  result.events_processed = be->events_processed();
  result.sink_records = static_cast<int64_t>(job.sink_records().size());
  result.recoveries = static_cast<int64_t>(job.recovery_reports().size());
  result.checkpoint_bytes = job.CheckpointBytesWritten();
  result.checkpoints_skipped = job.CheckpointsSkipped();
  result.approx_recoveries =
      static_cast<int64_t>(job.approx_certificates().size());
  for (const af::ApproxCertificate& cert : job.approx_certificates()) {
    result.forfeited_records += cert.forfeited.records;
    result.max_certified_loss =
        std::max(result.max_certified_loss, cert.certified_loss);
  }
  if (!job.recovery_reports().empty()) {
    result.recovery_latency_s =
        job.recovery_reports()[0].TotalLatency().seconds();
  }
  for (const obs::FidelitySample& sample : job.fidelity_timeseries()) {
    if (sample.failed_tasks > 0) {
      result.min_output_fidelity =
          std::min(result.min_output_fidelity, sample.output_fidelity);
    }
  }
  result.wall_seconds = WallClockSeconds() - wall_start;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppa;

  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);
  std::string out_path = "BENCH_mode_head_to_head.json";
  bool no_wall = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no_wall") == 0) {
      no_wall = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<CellSpec> cells;
  for (const ModeRow& mode : kModes) {
    for (bool correlated : {false, true}) {
      for (double rate : {1000.0, 2000.0}) {
        cells.push_back(CellSpec{&mode, correlated, rate});
      }
    }
  }

  const backend::BackendKind backend_kind = driver.backend_kind();
  std::vector<CellResult> results = driver.Map<CellResult>(
      static_cast<int>(cells.size()), [&cells, backend_kind](int i) {
        return RunCell(cells[static_cast<size_t>(i)], backend_kind);
      });

  std::printf("mode_head_to_head: fail at %.0fs, run to %.0fs (%s)\n",
              kFailAtSeconds, kRunForSeconds,
              driver.backend_name().c_str());
  std::printf("%-8s %10s %6s %12s %8s %10s %10s %8s\n", "mode",
              "intensity", "rate", "cp_bytes", "skipped", "recov_s",
              "min_OF", "forfeit");
  JsonValue cell_array = JsonValue::Array();
  bool any_error = false;
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellSpec& spec = cells[i];
    const CellResult& r = results[i];
    const char* intensity = spec.correlated ? "correlated" : "single";
    if (!r.error.empty()) {
      any_error = true;
      std::printf("%-8s %10s %6.0f %s\n", spec.mode->label, intensity,
                  spec.rate, r.error.c_str());
      continue;
    }
    std::printf("%-8s %10s %6.0f %12lld %8lld %10.2f %10.3f %8lld\n",
                spec.mode->label, intensity, spec.rate,
                static_cast<long long>(r.checkpoint_bytes),
                static_cast<long long>(r.checkpoints_skipped),
                r.recovery_latency_s, r.min_output_fidelity,
                static_cast<long long>(r.forfeited_records));

    JsonValue entry = JsonValue::Object();
    // The bench_diff cell key: recovery mode and backend partition the
    // trajectories; intensity/rate/window identify the drill.
    entry.Set("recovery_mode", std::string(spec.mode->label));
    entry.Set("backend", driver.backend_name());
    entry.Set("intensity", std::string(intensity));
    entry.Set("rate", spec.rate);
    entry.Set("window_batches", kWindowBatches);
    // Deterministic counters (gate exactly in bench_diff).
    entry.Set("events_processed", r.events_processed);
    entry.Set("sink_records", r.sink_records);
    entry.Set("recoveries", r.recoveries);
    entry.Set("checkpoint_bytes", r.checkpoint_bytes);
    entry.Set("checkpoints_skipped", r.checkpoints_skipped);
    // Report-only context.
    entry.Set("approx_recoveries", r.approx_recoveries);
    entry.Set("forfeited_records", r.forfeited_records);
    entry.Set("max_certified_loss", r.max_certified_loss);
    entry.Set("recovery_latency_s", r.recovery_latency_s);
    entry.Set("min_output_fidelity", r.min_output_fidelity);
    if (!no_wall) {
      entry.Set("wall_seconds", r.wall_seconds);
      entry.Set("events_per_sec",
                r.wall_seconds > 0
                    ? static_cast<double>(r.events_processed) /
                          r.wall_seconds
                    : 0.0);
    }
    cell_array.Append(std::move(entry));
  }
  if (any_error) {
    std::fprintf(stderr, "mode_head_to_head: cell errors above\n");
    return 1;
  }

  // Headline self-check: on the correlated drill, approximate mode must
  // persist strictly fewer checkpoint bytes than exact PPA at every rate.
  bool headline_ok = true;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (std::strcmp(cells[i].mode->label, "approx") != 0 ||
        !cells[i].correlated) {
      continue;
    }
    for (size_t j = 0; j < cells.size(); ++j) {
      if (std::strcmp(cells[j].mode->label, "ppa") == 0 &&
          cells[j].correlated && cells[j].rate == cells[i].rate &&
          results[i].checkpoint_bytes >= results[j].checkpoint_bytes) {
        std::fprintf(stderr,
                     "approx wrote %lld checkpoint bytes >= ppa's %lld at "
                     "rate %.0f (correlated)\n",
                     static_cast<long long>(results[i].checkpoint_bytes),
                     static_cast<long long>(results[j].checkpoint_bytes),
                     cells[i].rate);
        headline_ok = false;
      }
    }
  }
  if (!headline_ok) {
    return 1;
  }

  JsonValue report = JsonValue::Object();
  driver.StampBenchReport(&report, "mode_head_to_head");
  report.Set("benchmark", std::string("mode_head_to_head"));
  report.Set("fail_at_seconds", kFailAtSeconds);
  report.Set("run_for_seconds", kRunForSeconds);
  report.Set("cells", std::move(cell_array));
  const Status written = WriteJsonFile(out_path, report);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  driver.metrics().Add("mode_head_to_head", std::move(report));
  return driver.Finish("mode_head_to_head");
}
