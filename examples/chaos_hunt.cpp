// chaos_hunt: randomized fault-campaign runner. Generates seeded chaos
// cases (random topology, cluster, failure domains, replication plan,
// and fault timeline), executes each one deterministically, checks the
// built-in invariant oracles against a fault-free golden run, and
// optionally shrinks every failing schedule to a minimal replayable
// repro.
//
// Usage:
//   chaos_hunt [options]
//     --seeds <n>          cases to run (default 64)
//     --intensity <low|medium|high>   generator preset (default medium)
//     --minimize           shrink failing cases with delta debugging
//     --multi              generate service cases instead of single jobs
//                          (2-8 tenants on one shared cluster)
//     --replay <file>      run one chaos-case JSON instead of a campaign
//                          (single-job or service: the file says which)
//     --report <file>      write the campaign report as JSON
//     --repro_dir <dir>    write failing (minimized when available)
//                          cases as <dir>/repro_<seed>.json, each with
//                          its flight-recorder post-mortem beside it as
//                          <dir>/repro_<seed>_flight.json
//
// Shared experiment flags (parsed by bench::Driver):
//     --jobs <n>           worker threads; the report is byte-identical
//                          for any value
//     --seed <n>           base seed of the campaign (default 1)
//     --backend <sim|threads>  substrate the cases execute on; golden
//                          twins and the minimizer oracle always stay
//                          on the sim, so "threads" is a fault-injected
//                          parity sweep (DESIGN.md §16)
//     --recovery_mode <ppa|approx|hybrid>  recovery mode stamped into
//                          every generated case (DESIGN.md §17); the
//                          error-budget invariant checks the certified
//                          divergence bound under approx/hybrid
//     --progress           live per-case progress line on stderr (ticks
//                          in completion order; the report is unchanged)
//     --metrics_out <file> / --chrome_trace_out <file>
//
// Exit code: 0 when every case passed, 1 when any case failed or errored.
//
// Replay a minimized repro:
//   chaos_hunt --replay repro_1234.json

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/driver.h"
#include "chaos/campaign.h"
#include "chaos/chaos_run.h"
#include "exp/progress.h"
#include "report/experiment_report.h"

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

void PrintViolations(const std::vector<chaos::ChaosViolation>& violations) {
  for (const chaos::ChaosViolation& violation : violations) {
    std::printf("VIOLATION [%s] %s\n", violation.invariant.c_str(),
                violation.message.c_str());
  }
}

int Replay(const std::string& path) {
  auto text = ReadFile(path);
  PPA_CHECK_OK(text.status());
  auto chaos_case = chaos::ParseChaosCaseJson(*text);
  if (!chaos_case.ok()) {
    std::fprintf(stderr, "bad chaos case: %s\n",
                 chaos_case.status().ToString().c_str());
    return 2;
  }
  auto report = chaos::RunChaosCase(*chaos_case);
  if (!report.ok()) {
    std::fprintf(stderr, "replay failed to execute: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (chaos_case->is_service()) {
    std::printf("%zu tenants (%zu admitted, %zu queued), "
                "%zu arbitrations\n",
                report->tenants_submitted, report->tenants_admitted,
                report->tenants_queued, report->arbitrations);
  }
  std::printf("seed %llu: %zu/%zu events executed, %zu sink records, "
              "%zu recoveries, ended @%.1fs\n",
              static_cast<unsigned long long>(report->seed),
              report->events_executed, report->events_scheduled,
              report->sink_records, report->recoveries,
              report->end_seconds);
  if (report->violations.empty()) {
    std::printf("all invariants held\n");
    return 0;
  }
  PrintViolations(report->violations);
  return 1;
}

int Run(int argc, char** argv) {
  bench::Driver driver = bench::Driver::FromArgs(&argc, argv);
  chaos::CampaignOptions options;
  options.intensity = chaos::ChaosIntensity::Medium();
  // --backend=threads turns the campaign into a fault-injected parity
  // sweep: cases execute on the threaded backend while golden twins and
  // the minimizer oracle stay on the deterministic sim (DESIGN.md §16).
  options.backend = driver.backend_kind();
  // --recovery_mode=approx/hybrid stamps every generated case with the
  // bounded-error recovery contract; the error-budget invariant then
  // holds measured loss to the certified bound (DESIGN.md §17).
  options.recovery_mode = driver.recovery_mode();
  std::string replay_path, report_path, repro_dir;
  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (std::strcmp(argv[i], "--seeds") == 0) {
      options.num_seeds = std::stoi(need_value("--seeds"));
    } else if (std::strcmp(argv[i], "--intensity") == 0) {
      auto parsed =
          chaos::ChaosIntensityFromString(need_value("--intensity"));
      PPA_CHECK_OK(parsed.status());
      options.intensity = *parsed;
    } else if (std::strcmp(argv[i], "--minimize") == 0) {
      options.minimize = true;
    } else if (std::strcmp(argv[i], "--multi") == 0) {
      options.service_cases = true;
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_path = need_value("--replay");
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report_path = need_value("--report");
    } else if (std::strcmp(argv[i], "--repro_dir") == 0) {
      repro_dir = need_value("--repro_dir");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (!replay_path.empty()) {
    return Replay(replay_path);
  }

  options.base_seed = driver.seed_or(1);
  options.jobs = driver.jobs();
  // The shared --progress meter ticks once per finished case from
  // whatever worker ran it, serialized under the meter's lock. stderr
  // only: the report and stdout stay byte-identical with or without it.
  options.progress = driver.StartProgress(options.num_seeds, "case");
  auto campaign = chaos::RunCampaign(options);
  PPA_CHECK_OK(campaign.status());

  for (const chaos::CampaignCaseResult& result : campaign->results) {
    if (!result.failed()) {
      continue;
    }
    if (!result.error.empty()) {
      std::printf("case %d (seed %llu): ERROR %s\n", result.index,
                  static_cast<unsigned long long>(result.seed),
                  result.error.c_str());
    } else {
      for (const chaos::ChaosViolation& violation :
           result.report.violations) {
        std::printf("case %d (seed %llu): VIOLATION [%s] %s\n",
                    result.index,
                    static_cast<unsigned long long>(result.seed),
                    violation.invariant.c_str(),
                    violation.message.c_str());
      }
    }
    if (!repro_dir.empty()) {
      const chaos::ChaosCase& repro =
          result.has_minimized ? result.minimized : result.chaos_case;
      const std::string path = repro_dir + "/repro_" +
                               std::to_string(result.seed) + ".json";
      PPA_CHECK_OK(WriteJsonFile(path, chaos::ChaosCaseToJson(repro)));
      std::printf("  repro written to %s\n", path.c_str());
      // The post-mortem matching the written repro: the minimized
      // rerun's flight record when the repro is minimized, the original
      // case's otherwise.
      const JsonValue& flight = result.has_minimized &&
                                        !result.minimized_flight_record
                                             .is_null()
                                    ? result.minimized_flight_record
                                    : result.report.flight_record;
      if (!flight.is_null()) {
        const std::string flight_path =
            repro_dir + "/repro_" + std::to_string(result.seed) +
            "_flight.json";
        PPA_CHECK_OK(WriteJsonFile(flight_path, flight));
        std::printf("  flight record written to %s\n", flight_path.c_str());
      }
    }
  }
  std::printf("%d/%d cases passed (%d violations)\n",
              options.num_seeds - campaign->num_failed, options.num_seeds,
              campaign->num_violations);
  if (!report_path.empty()) {
    PPA_CHECK_OK(
        WriteJsonFile(report_path, chaos::CampaignReportToJson(*campaign)));
    std::printf("report written to %s\n", report_path.c_str());
  }
  driver.metrics().Add("campaign", chaos::CampaignReportToJson(*campaign));
  const int driver_exit = driver.Finish("chaos_hunt");
  if (driver_exit != 0) {
    return driver_exit;
  }
  return campaign->num_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
