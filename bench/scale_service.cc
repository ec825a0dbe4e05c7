// Service scalability: N concurrent tenant jobs x M tasks per job on one
// shared cluster, with a correlated domain failure mid-run. Measures the
// simulator's throughput (processed events per wall second) and the
// sim-time/wall-time ratio as the multi-tenant ClusterService scales, and
// emits the repo's first BENCH_*.json so later PRs can track the perf
// trajectory.
//
// Usage: scale_service [--out <file>] [shared driver flags]
//   --out <file>  where to write the JSON report
//                 (default BENCH_scale_service.json)
//
// Cells run sequentially regardless of --jobs: each cell is wall-timed,
// and concurrent cells would contend and skew each other's clocks.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "af/error_budget.h"
#include "backend/execution_backend.h"
#include "bench/driver.h"
#include "common/wall_clock.h"
#include "report/experiment_report.h"
#include "service/cluster_service.h"

namespace {

using namespace ppa;

constexpr double kSimSeconds = 120.0;
constexpr double kFailureAtSeconds = 30.0;

/// A chain of `tasks` single-task operators (the sweep varies job size,
/// not shape).
std::string ChainSpec(int tasks) {
  std::string spec = "operator op0 1 rate=100\n";
  for (int i = 1; i < tasks; ++i) {
    spec += "operator op" + std::to_string(i) + " 1\n";
    spec += "edge op" + std::to_string(i - 1) + " op" + std::to_string(i) +
            " one-to-one\n";
  }
  return spec;
}

struct Cell {
  int tenants = 0;
  int tasks_per_tenant = 0;
  int64_t events_processed = 0;
  int64_t sink_records = 0;
  int64_t recoveries = 0;
  double wall_seconds = 0.0;
};

Cell RunCell(int tenants, int tasks_per_tenant,
             backend::BackendKind backend_kind,
             af::RecoveryMode recovery_mode) {
  const int total_tasks = tenants * tasks_per_tenant;
  service::ServiceConfig config;
  config.worker_slots_per_node = 4;
  config.standby_slots_per_node = 4;
  config.num_worker_nodes = (total_tasks + 3) / 4 + 2;
  config.num_standby_nodes = (tenants + 3) / 4 + 1;

  // The sim/wall ratio is the benchmark output; WallClockSeconds is the
  // allowlisted shim for exactly this meta-level measurement.
  const double wall_start = WallClockSeconds();
  std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend_kind);
  service::ClusterService svc(config, be.get());
  for (int node = 0; node < config.num_worker_nodes + config.num_standby_nodes;
       ++node) {
    PPA_CHECK_OK(svc.AssignDomain(node, node / 4));
  }
  for (int i = 0; i < tenants; ++i) {
    service::TenantSpec spec;
    spec.topology_spec = ChainSpec(tasks_per_tenant);
    spec.config.recovery_mode = recovery_mode;
    spec.replica_budget = 1;
    spec.priority = i % 4;
    spec.initial_plan = {1};
    PPA_CHECK_OK(svc.Submit(std::move(spec)).status());
  }
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(kFailureAtSeconds));
  PPA_CHECK_OK(svc.InjectDomainFailure(0));
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(kSimSeconds));
  const double wall_end = WallClockSeconds();

  Cell cell;
  cell.tenants = tenants;
  cell.tasks_per_tenant = tasks_per_tenant;
  cell.events_processed = be->events_processed();
  for (int id : svc.TenantIds()) {
    const StreamingJob* job = svc.job(id);
    if (job != nullptr) {
      cell.sink_records += static_cast<int64_t>(job->sink_records().size());
      cell.recoveries += static_cast<int64_t>(job->recovery_reports().size());
    }
  }
  cell.wall_seconds = wall_end - wall_start;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppa;

  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);
  std::string out_path = "BENCH_scale_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const int tenant_counts[] = {1, 4, 16};
  const int task_counts[] = {3, 6};

  std::printf("scale_service: %.0fs simulated, domain failure at %.0fs\n",
              kSimSeconds, kFailureAtSeconds);
  std::printf("%8s %6s %10s %12s %12s %10s\n", "tenants", "tasks", "events",
              "events/sec", "sim/wall", "wall (s)");

  JsonValue cells = JsonValue::Array();
  for (int tenants : tenant_counts) {
    for (int tasks : task_counts) {
      const Cell cell = RunCell(tenants, tasks, driver.backend_kind(),
                                driver.recovery_mode());
      const double events_per_sec =
          cell.wall_seconds > 0
              ? static_cast<double>(cell.events_processed) / cell.wall_seconds
              : 0.0;
      const double sim_wall_ratio =
          cell.wall_seconds > 0 ? kSimSeconds / cell.wall_seconds : 0.0;
      std::printf("%8d %6d %10lld %12.0f %12.1f %10.3f\n", cell.tenants,
                  cell.tasks_per_tenant,
                  static_cast<long long>(cell.events_processed),
                  events_per_sec, sim_wall_ratio, cell.wall_seconds);

      JsonValue entry = JsonValue::Object();
      // Part of the bench_diff cell key (see scale_cluster).
      entry.Set("backend", driver.backend_name());
      entry.Set("recovery_mode", driver.recovery_mode_name());
      entry.Set("tenants", cell.tenants);
      entry.Set("tasks_per_tenant", cell.tasks_per_tenant);
      entry.Set("total_tasks", cell.tenants * cell.tasks_per_tenant);
      entry.Set("sim_seconds", kSimSeconds);
      entry.Set("events_processed", cell.events_processed);
      entry.Set("sink_records", cell.sink_records);
      entry.Set("recoveries", cell.recoveries);
      entry.Set("wall_seconds", cell.wall_seconds);
      entry.Set("events_per_sec", events_per_sec);
      entry.Set("sim_wall_ratio", sim_wall_ratio);
      cells.Append(std::move(entry));
    }
  }

  JsonValue report = JsonValue::Object();
  driver.StampBenchReport(&report, "scale_service");
  report.Set("benchmark", std::string("scale_service"));
  report.Set("sim_seconds", kSimSeconds);
  report.Set("failure_at_seconds", kFailureAtSeconds);
  report.Set("cells", std::move(cells));
  const Status written = WriteJsonFile(out_path, report);
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  driver.metrics().Add("scale_service", std::move(report));
  return driver.Finish("scale_service");
}
