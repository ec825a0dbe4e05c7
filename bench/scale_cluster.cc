// Cluster scalability: ONE job spread over 256/1024/4096 nodes with a
// correlated failure-domain drill mid-run — the first scale benchmark of
// the single-job engine (scale_service sweeps tenant count instead). Each
// cell builds a src -> mid -> sink topology sized to the cluster, assigns
// rack-style failure domains of 16 nodes, replicates every 8th mid task
// (kPpa), kills domain 0 at t=10s, and runs to t=30s. Deterministic
// counters (events_processed, sink_records, recoveries) gate the perf
// trajectory via tools/bench_diff; wall metrics track simulator
// throughput and are report-only.
//
// Usage: scale_cluster [--out <file>] [--no_wall] [shared driver flags]
//   --out <file>  where to write the JSON report
//                 (default BENCH_scale_cluster.json)
//   --no_wall     omit wall-clock fields from the report, making the file
//                 byte-identical across machines and --jobs counts (the
//                 CI determinism check compares two such runs)
//
// The shared --backend flag selects the execution substrate: sim
// (default) measures simulator throughput; threads runs the same cells on
// the real worker-pool backend, so events/sec is genuine wall-clock
// dispatch rate. The backend is part of every cell key, keeping the two
// trajectories separate in bench_diff.
//
// Cells run sequentially regardless of --jobs: each cell is wall-timed,
// and concurrent cells would contend and skew each other's clocks.

#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "backend/execution_backend.h"
#include "bench/driver.h"
#include "common/wall_clock.h"
#include "report/experiment_report.h"
#include "runtime/streaming_job.h"
#include "topology/serialize.h"
#include "workloads/synthetic_recovery.h"

namespace {

using namespace ppa;

constexpr double kSimSeconds = 30.0;
constexpr double kFailureAtSeconds = 10.0;
/// Rack-style failure domains: 16 nodes per domain.
constexpr int kDomainSize = 16;
/// Every 8th mid task gets an active replica.
constexpr int kReplicaStride = 8;

/// src -> mid (one-to-one) -> sink (merge), with `width` src and mid
/// tasks each — the widest topology shape the engine supports without
/// shuffle skew dominating the measurement.
std::string WideSpec(int width) {
  std::string w = std::to_string(width);
  return "operator src " + w + " rate=4\n" +
         "operator mid " + w + "\n" +
         "operator sink 1\n" +
         "edge src mid one-to-one\n" +
         "edge mid sink merge\n";
}

struct Cell {
  int nodes = 0;
  int workers = 0;
  int standby = 0;
  int total_tasks = 0;
  int replicas = 0;
  int domains = 0;
  int64_t events_processed = 0;
  int64_t sink_records = 0;
  int64_t recoveries = 0;
  double wall_seconds = 0.0;
};

Cell RunCell(int nodes, backend::BackendKind backend_kind,
             af::RecoveryMode recovery_mode) {
  const int workers = nodes * 3 / 4;
  const int width = workers / 2;

  JobConfig config = JobConfig::PpaDefaults();
  config.num_worker_nodes = workers;
  config.num_standby_nodes = nodes - workers;
  config.recovery_mode = recovery_mode;

  auto topo = ParseTopologySpec(WideSpec(width));
  PPA_CHECK_OK(topo.status());

  // The sim/wall ratio is the benchmark output; WallClockSeconds is the
  // allowlisted shim for exactly this meta-level measurement. With
  // --backend=threads the same wall metrics measure the real worker-pool
  // dispatch rate instead of the single-thread simulator.
  const double wall_start = WallClockSeconds();
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend_kind);
  StreamingJob job(*topo, config, JobRuntimeDeps(be.get()));
  PPA_CHECK_OK(BindGenericWorkload(*topo, config, &job));
  for (int node = 0; node < nodes; ++node) {
    PPA_CHECK_OK(job.cluster().AssignDomain(node, node / kDomainSize));
  }
  // kPpa plan: every kReplicaStride-th mid task (operator 1 in spec
  // order) is actively replicated; everything else recovers passively.
  TaskSet plan(topo->num_tasks());
  int mid_index = 0;
  for (TaskId t = 0; t < topo->num_tasks(); ++t) {
    if (topo->task(t).op != 1) {
      continue;
    }
    if (mid_index % kReplicaStride == 0) {
      plan.Add(t);
    }
    ++mid_index;
  }
  PPA_CHECK_OK(job.SetActiveReplicaSet(plan));
  PPA_CHECK_OK(job.Start());

  be->RunUntil(TimePoint::Zero() + Duration::Seconds(kFailureAtSeconds));
  PPA_CHECK_OK(job.InjectDomainFailure(0));
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(kSimSeconds));
  const double wall_end = WallClockSeconds();

  Cell cell;
  cell.nodes = nodes;
  cell.workers = workers;
  cell.standby = nodes - workers;
  cell.total_tasks = topo->num_tasks();
  cell.replicas = plan.size();
  cell.domains = (nodes + kDomainSize - 1) / kDomainSize;
  cell.events_processed = be->events_processed();
  cell.sink_records = static_cast<int64_t>(job.sink_records().size());
  cell.recoveries = static_cast<int64_t>(job.recovery_reports().size());
  cell.wall_seconds = wall_end - wall_start;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppa;

  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);
  std::string out_path = "BENCH_scale_cluster.json";
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

  const int node_counts[] = {256, 1024, 4096};

  std::printf("scale_cluster: %.0fs simulated, domain 0 (%d nodes) fails "
              "at %.0fs\n",
              kSimSeconds, kDomainSize, kFailureAtSeconds);
  std::printf("%8s %8s %8s %10s %12s %12s %10s\n", "nodes", "tasks",
              "replicas", "events", "events/sec", "sim/wall", "wall (s)");

  exp::ProgressMeter* progress =
      driver.StartProgress(static_cast<int>(std::size(node_counts)),
                           "cell");
  JsonValue cells = JsonValue::Array();
  for (int nodes : node_counts) {
    const Cell cell =
        RunCell(nodes, driver.backend_kind(), driver.recovery_mode());
    if (progress != nullptr) {
      progress->Record(false);
    }
    const double events_per_sec =
        cell.wall_seconds > 0
            ? static_cast<double>(cell.events_processed) / cell.wall_seconds
            : 0.0;
    const double sim_wall_ratio =
        cell.wall_seconds > 0 ? kSimSeconds / cell.wall_seconds : 0.0;
    std::printf("%8d %8d %8d %10lld %12.0f %12.1f %10.3f\n", cell.nodes,
                cell.total_tasks, cell.replicas,
                static_cast<long long>(cell.events_processed),
                events_per_sec, sim_wall_ratio, cell.wall_seconds);

    JsonValue entry = JsonValue::Object();
    // Part of the bench_diff cell key: a sim cell and a threads cell are
    // different measurements and must never be diffed against each other;
    // same for exact vs approximate recovery.
    entry.Set("backend", driver.backend_name());
    entry.Set("recovery_mode", driver.recovery_mode_name());
    entry.Set("nodes", cell.nodes);
    entry.Set("workers", cell.workers);
    entry.Set("standby", cell.standby);
    entry.Set("total_tasks", cell.total_tasks);
    entry.Set("replicas", cell.replicas);
    entry.Set("domains", cell.domains);
    entry.Set("sim_seconds", kSimSeconds);
    entry.Set("events_processed", cell.events_processed);
    entry.Set("sink_records", cell.sink_records);
    entry.Set("recoveries", cell.recoveries);
    if (!no_wall) {
      entry.Set("wall_seconds", cell.wall_seconds);
      entry.Set("events_per_sec", events_per_sec);
      entry.Set("sim_wall_ratio", sim_wall_ratio);
    }
    cells.Append(std::move(entry));
  }

  JsonValue report = JsonValue::Object();
  driver.StampBenchReport(&report, "scale_cluster");
  report.Set("benchmark", std::string("scale_cluster"));
  report.Set("sim_seconds", kSimSeconds);
  report.Set("failure_at_seconds", kFailureAtSeconds);
  report.Set("domain_size", kDomainSize);
  report.Set("replica_stride", kReplicaStride);
  report.Set("cells", std::move(cells));
  const Status written = WriteJsonFile(out_path, report);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  driver.metrics().Add("scale_cluster", std::move(report));
  return driver.Finish("scale_cluster");
}
