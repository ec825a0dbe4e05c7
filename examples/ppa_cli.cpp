// ppa_cli: file-driven experiment runner. Loads a topology spec and an
// optional scenario script, binds generic sliding-window operators (the
// operator semantics of the Fig. 6 synthetic workload), runs the simulated
// cluster under the chosen fault-tolerance mode, and writes a JSON report.
//
// Usage:
//   ppa_cli <topology.spec> [options]
//     --scenario <file>    timed failure script (see ParseScenario), or a
//                          JSON event array (see ScenarioToJson) — picked
//                          by content, so minimized chaos repro timelines
//                          replay directly
//     --mode <checkpoint|source-replay|active|ppa>   (default ppa)
//     --planner <dp|greedy|sa|exhaustive|random|expected>  PPA planner
//                          (default sa, the structure-aware heuristic)
//     --budget <n>         PPA replication budget (default: tasks/2)
//     --seconds <s>        simulated duration (default 60)
//     --window <batches>   operator window length (default 10)
//     --json <file>        write the job summary report here
//     --dot <file>         write the (plan-annotated) topology as DOT
//
// Shared experiment flags (parsed by bench::Driver):
//     --metrics_out <file> write the observability profile (metrics,
//                          recovery timelines, tentative windows, spans,
//                          fidelity timeseries, trace)
//     --chrome_trace_out <file>  write a Chrome/Perfetto Trace Event
//                          Format JSON (load in chrome://tracing or
//                          https://ui.perfetto.dev)
//     --jobs <n>           accepted for tooling uniformity (one run only)
//     --seed <n>           seed forwarded to the planner
//     --backend <sim|threads>  execution substrate: sim (default) is
//                          the deterministic simulator; threads runs
//                          the same job on the real worker-pool
//                          backend in wall-clock time
//     --recovery_mode <ppa|approx|hybrid>  exact recovery (default),
//                          bounded-error approximate recovery, or the
//                          hybrid (replicated tasks exact, rest
//                          approximate); see DESIGN.md §17
//
// Example spec + scenario live in the repository README.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "backend/execution_backend.h"
#include "bench/driver.h"
#include "planner/planner.h"
#include "report/experiment_report.h"
#include "runtime/scenario.h"
#include "runtime/streaming_job.h"
#include "topology/serialize.h"
#include "workloads/synthetic_recovery.h"

namespace {

using namespace ppa;

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("cannot read '" + path + "'");
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

StatusOr<FtMode> ModeFromString(const std::string& s) {
  if (s == "checkpoint") {
    return FtMode::kCheckpoint;
  }
  if (s == "source-replay") {
    return FtMode::kSourceReplay;
  }
  if (s == "active") {
    return FtMode::kActiveReplication;
  }
  if (s == "ppa") {
    return FtMode::kPpa;
  }
  return InvalidArgument("unknown mode '" + s + "'");
}

int Run(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <topology.spec> [options]\n", argv[0]);
    return 2;
  }
  std::string scenario_path, json_path, dot_path;
  FtMode mode = FtMode::kPpa;
  PlannerKind planner_kind = PlannerKind::kStructureAware;
  int budget = -1;
  double seconds = 60;
  int64_t window = 10;
  for (int i = 2; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (std::strcmp(argv[i], "--scenario") == 0) {
      scenario_path = need_value("--scenario");
    } else if (std::strcmp(argv[i], "--mode") == 0) {
      auto parsed = ModeFromString(need_value("--mode"));
      PPA_CHECK_OK(parsed.status());
      mode = *parsed;
    } else if (std::strcmp(argv[i], "--planner") == 0) {
      auto parsed = PlannerKindFromString(need_value("--planner"));
      PPA_CHECK_OK(parsed.status());
      planner_kind = *parsed;
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      budget = std::stoi(need_value("--budget"));
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = std::stod(need_value("--seconds"));
    } else if (std::strcmp(argv[i], "--window") == 0) {
      window = std::stoll(need_value("--window"));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      dot_path = need_value("--dot");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  auto spec = ReadFile(argv[1]);
  PPA_CHECK_OK(spec.status());
  auto topo = ParseTopologySpec(*spec);
  if (!topo.ok()) {
    std::fprintf(stderr, "bad topology spec: %s\n",
                 topo.status().ToString().c_str());
    return 1;
  }
  std::printf("topology: %d operators, %d tasks\n", topo->num_operators(),
              topo->num_tasks());

  // --backend picks the substrate; the job only sees the
  // ExecutionBackend interface, so sim and threads drive identically.
  std::unique_ptr<backend::ExecutionBackend> be = driver.MakeBackend();
  JobConfig config;
  config.ft_mode = mode;
  config.recovery_mode = driver.recovery_mode();
  config.num_worker_nodes = std::max(4, topo->num_tasks());
  config.num_standby_nodes = std::max(2, topo->num_tasks() / 2);
  config.window_batches = window;
  if (Status valid = config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "bad config: %s\n", valid.ToString().c_str());
    return 2;
  }
  StreamingJob job(*topo, config, JobRuntimeDeps(be.get()));

  // Generic bindings: deterministic synthetic sources at the spec's rates,
  // sliding-window aggregates with the spec's selectivities elsewhere.
  PPA_CHECK_OK(BindGenericWorkload(*topo, config, &job));

  ReplicationPlan plan;
  plan.replicated = TaskSet(topo->num_tasks());
  if (mode == FtMode::kPpa) {
    if (budget < 0) {
      budget = topo->num_tasks() / 2;
    }
    PlannerOptions planner_options;
    planner_options.seed = driver.seed_or(planner_options.seed);
    auto planner = CreatePlanner(planner_kind, planner_options);
    auto planned = planner->Plan(PlanRequest(*topo, budget));
    PPA_CHECK_OK(planned.status());
    plan = *std::move(planned);
    std::printf("plan (%s): %d replicas, worst-case OF %.3f\n",
                std::string(planner->name()).c_str(), plan.resource_usage(),
                plan.output_fidelity);
    PPA_CHECK_OK(job.SetActiveReplicaSet(plan.replicated));
  }
  PPA_CHECK_OK(job.Start());

  ScenarioRunner runner(&job);
  if (!scenario_path.empty()) {
    auto script = ReadFile(scenario_path);
    PPA_CHECK_OK(script.status());
    // A scenario file is either a line-oriented script or a JSON event
    // array; a leading '[' can only be the latter.
    const size_t first = script->find_first_not_of(" \t\r\n");
    auto events = first != std::string::npos && (*script)[first] == '['
                      ? ParseScenarioJson(*script)
                      : ParseScenario(*topo, *script);
    if (!events.ok()) {
      std::fprintf(stderr, "bad scenario: %s\n",
                   events.status().ToString().c_str());
      return 1;
    }
    PPA_CHECK_OK(runner.Run(*std::move(events)));
  }

  be->RunUntil(TimePoint::Zero() + Duration::Seconds(seconds));
  if (!runner.FirstError().ok()) {
    std::fprintf(stderr, "scenario event failed: %s\n",
                 runner.FirstError().ToString().c_str());
  }

  std::printf("ran %.0f simulated seconds: %zu sink records, %zu "
              "recoveries\n",
              seconds, job.sink_records().size(),
              job.recovery_reports().size());
  for (const RecoveryReport& report : job.recovery_reports()) {
    std::printf("  failure @%.1fs: total %.2fs (active %.2fs, passive "
                "%.2fs)\n",
                report.failure_time.seconds(),
                report.TotalLatency().seconds(),
                report.ActiveLatency().seconds(),
                report.PassiveLatency().seconds());
  }

  if (!json_path.empty()) {
    PPA_CHECK_OK(WriteJsonFile(json_path, JobSummaryToJson(job)));
    std::printf("report written to %s\n", json_path.c_str());
  }
  driver.metrics().Add("profile", JobProfileToJson(job));
  driver.traces().Capture(JobChromeTraceToJson(job));
  driver.flight().Capture(JobFlightRecordToJson(job));
  if (!dot_path.empty()) {
    std::ofstream out(dot_path);
    out << ToDot(*topo, mode == FtMode::kPpa ? &plan.replicated : nullptr);
    std::printf("DOT written to %s\n", dot_path.c_str());
  }
  return driver.Finish("ppa_cli");
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
