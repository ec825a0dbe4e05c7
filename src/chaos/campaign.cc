#include "chaos/campaign.h"

#include <utility>

#include "common/random.h"
#include "exp/parallel_runner.h"

namespace ppa {
namespace chaos {
namespace {

/// Generates, runs, and (optionally) minimizes case `index`. Never
/// fails: execution errors land in the result's `error` field so one
/// broken case cannot take down the campaign.
CampaignCaseResult RunOneCaseInner(const CampaignOptions& options,
                                   int index) {
  CampaignCaseResult result;
  result.index = index;
  result.seed = DeriveSeed(options.base_seed, static_cast<uint64_t>(index));
  StatusOr<ChaosCase> generated =
      options.service_cases
          ? GenerateServiceCase(options.intensity, result.seed)
          : GenerateChaosCase(options.intensity, result.seed);
  if (!generated.ok()) {
    result.error = "generate: " + generated.status().ToString();
    return result;
  }
  result.chaos_case = *std::move(generated);
  result.chaos_case.recovery_mode = options.recovery_mode;
  StatusOr<ChaosRunReport> report =
      RunChaosCase(result.chaos_case, BuiltinInvariants(), options.backend);
  if (!report.ok()) {
    result.error = "run: " + report.status().ToString();
    return result;
  }
  result.report = *std::move(report);
  if (!result.report.violations.empty() && options.minimize) {
    StatusOr<MinimizeResult> minimized =
        MinimizeFailingCase(result.chaos_case, BuiltinOracle());
    if (minimized.ok()) {
      result.has_minimized = true;
      result.minimized = std::move(minimized->minimized);
      result.minimized_invariant = std::move(minimized->invariant);
      result.minimize_oracle_calls = minimized->oracle_calls;
      // One deterministic rerun of the shrunk case to capture its own
      // post-mortem (the original case's flight record describes the
      // unshrunk timeline). The rerun stays on the sim, like the
      // minimizer oracle that produced the shrunk case.
      StatusOr<ChaosRunReport> rerun = RunChaosCase(result.minimized);
      if (rerun.ok()) {
        result.minimized_flight_record = std::move(rerun->flight_record);
      }
    }
  }
  return result;
}

/// RunOneCaseInner plus the progress tick: the tick happens on the
/// worker, in completion order, and never touches the result.
CampaignCaseResult RunOneCase(const CampaignOptions& options, int index) {
  CampaignCaseResult result = RunOneCaseInner(options, index);
  if (options.progress != nullptr) {
    options.progress->Record(result.failed());
  }
  return result;
}

JsonValue IntensityToJson(const ChaosIntensity& intensity) {
  JsonValue json = JsonValue::Object();
  json.Set("min_events", intensity.min_events);
  json.Set("max_events", intensity.max_events);
  json.Set("overlap_probability", intensity.overlap_probability);
  json.Set("failure_during_recovery_bias",
           intensity.failure_during_recovery_bias);
  json.Set("revive_probability", intensity.revive_probability);
  json.Set("plan_swap_probability", intensity.plan_swap_probability);
  json.Set("reconcile_probability", intensity.reconcile_probability);
  json.Set("domain_failure_fraction", intensity.domain_failure_fraction);
  json.Set("correlated_failure_fraction",
           intensity.correlated_failure_fraction);
  return json;
}

JsonValue CaseResultToJson(const CampaignCaseResult& result) {
  JsonValue json = JsonValue::Object();
  json.Set("index", result.index);
  json.Set("seed", static_cast<int64_t>(result.seed));
  json.Set("failed", result.failed());
  if (!result.error.empty()) {
    json.Set("error", result.error);
    json.Set("case", ChaosCaseToJson(result.chaos_case));
    return json;
  }
  const bool service = result.chaos_case.is_service();
  if (service) {
    json.Set("tenants_submitted",
             static_cast<int64_t>(result.report.tenants_submitted));
    json.Set("tenants_admitted",
             static_cast<int64_t>(result.report.tenants_admitted));
    json.Set("tenants_queued",
             static_cast<int64_t>(result.report.tenants_queued));
  }
  json.Set("events_scheduled",
           static_cast<int64_t>(result.report.events_scheduled));
  json.Set("events_executed",
           static_cast<int64_t>(result.report.events_executed));
  json.Set("sink_records", static_cast<int64_t>(result.report.sink_records));
  json.Set("recoveries", static_cast<int64_t>(result.report.recoveries));
  if (service) {
    json.Set("arbitrations",
             static_cast<int64_t>(result.report.arbitrations));
    json.Set("degradations",
             static_cast<int64_t>(result.report.degradations));
    json.Set("promotions", static_cast<int64_t>(result.report.promotions));
  }
  json.Set("end_seconds", result.report.end_seconds);
  JsonValue violations = JsonValue::Array();
  for (const ChaosViolation& violation : result.report.violations) {
    JsonValue entry = JsonValue::Object();
    entry.Set("invariant", violation.invariant);
    entry.Set("message", violation.message);
    violations.Append(std::move(entry));
  }
  json.Set("violations", std::move(violations));
  if (result.failed()) {
    json.Set("case", ChaosCaseToJson(result.chaos_case));
    if (!result.report.flight_record.is_null()) {
      json.Set("flight_record", result.report.flight_record);
    }
    if (result.has_minimized) {
      JsonValue minimized = JsonValue::Object();
      minimized.Set("invariant", result.minimized_invariant);
      minimized.Set("oracle_calls", result.minimize_oracle_calls);
      minimized.Set("case", ChaosCaseToJson(result.minimized));
      if (!result.minimized_flight_record.is_null()) {
        minimized.Set("flight_record", result.minimized_flight_record);
      }
      json.Set("minimized", std::move(minimized));
    }
  }
  return json;
}

}  // namespace

StatusOr<CampaignReport> RunCampaign(const CampaignOptions& options) {
  if (options.num_seeds < 0) {
    return InvalidArgument("num_seeds must be non-negative");
  }
  if (options.jobs < 1) {
    return InvalidArgument("jobs must be at least 1");
  }
  exp::ParallelRunner runner(options.jobs);
  CampaignReport report;
  report.options = options;
  report.results = runner.Map<CampaignCaseResult>(
      options.num_seeds,
      [&options](int index) { return RunOneCase(options, index); });
  for (const CampaignCaseResult& result : report.results) {
    if (result.failed()) {
      ++report.num_failed;
    }
    report.num_violations +=
        static_cast<int>(result.report.violations.size());
  }
  return report;
}

JsonValue CampaignReportToJson(const CampaignReport& report) {
  JsonValue json = JsonValue::Object();
  json.Set("base_seed", static_cast<int64_t>(report.options.base_seed));
  json.Set("num_seeds", report.options.num_seeds);
  json.Set("backend", backend::BackendKindToString(report.options.backend));
  json.Set("recovery_mode",
           std::string(af::RecoveryModeToString(
               report.options.recovery_mode)));
  json.Set("minimize", report.options.minimize);
  json.Set("intensity", IntensityToJson(report.options.intensity));
  json.Set("num_failed", report.num_failed);
  json.Set("num_violations", report.num_violations);
  JsonValue cases = JsonValue::Array();
  for (const CampaignCaseResult& result : report.results) {
    cases.Append(CaseResultToJson(result));
  }
  json.Set("cases", std::move(cases));
  return json;
}

}  // namespace chaos
}  // namespace ppa
