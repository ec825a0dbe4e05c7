#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "af/error_budget.h"
#include "chaos/campaign.h"
#include "chaos/chaos_case.h"
#include "chaos/chaos_run.h"
#include "chaos/generator.h"
#include "chaos/minimizer.h"
#include "common/random.h"
#include "report/json.h"

namespace ppa {
namespace chaos {
namespace {

using ::testing::HasSubstr;

TEST(GeneratorTest, SameSeedSameCase) {
  auto a = GenerateChaosCase(ChaosIntensity::Medium(), 12345);
  auto b = GenerateChaosCase(ChaosIntensity::Medium(), 12345);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(ChaosCaseToJson(*a).Serialize(), ChaosCaseToJson(*b).Serialize());
}

TEST(GeneratorTest, DifferentSeedsDiverge) {
  auto a = GenerateChaosCase(ChaosIntensity::Medium(), 1);
  auto b = GenerateChaosCase(ChaosIntensity::Medium(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(ChaosCaseToJson(*a).Serialize(), ChaosCaseToJson(*b).Serialize());
}

TEST(GeneratorTest, IntensityBoundsEventCount) {
  ChaosIntensity intensity = ChaosIntensity::Low();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    auto c = GenerateChaosCase(intensity, seed);
    ASSERT_TRUE(c.ok()) << c.status();
    EXPECT_GE(static_cast<int>(c->events.size()), intensity.min_events);
    EXPECT_LE(static_cast<int>(c->events.size()), intensity.max_events);
    EXPECT_GT(c->run_for_seconds, 0.0);
    EXPECT_GE(c->budget, 1);
  }
}

TEST(GeneratorTest, IntensityPresetNamesParse) {
  EXPECT_TRUE(ChaosIntensityFromString("low").ok());
  EXPECT_TRUE(ChaosIntensityFromString("medium").ok());
  EXPECT_TRUE(ChaosIntensityFromString("high").ok());
  EXPECT_EQ(ChaosIntensityFromString("extreme").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChaosCaseJsonTest, RoundTrips) {
  auto generated = GenerateChaosCase(ChaosIntensity::High(), 777);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto parsed = ParseChaosCaseJson(ChaosCaseToJson(*generated).Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, *generated);
}

TEST(ChaosCaseJsonTest, RoundTripsNonDefaultRecoveryModeFields) {
  auto generated = GenerateChaosCase(ChaosIntensity::Medium(), 99);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ChaosCase tweaked = *generated;
  tweaked.recovery_mode = af::RecoveryMode::kApprox;
  tweaked.af_task_divergence_records = 1234;
  tweaked.af_max_certified_loss = 0.625;
  auto parsed = ParseChaosCaseJson(ChaosCaseToJson(tweaked).Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, tweaked);
  EXPECT_EQ(parsed->recovery_mode, af::RecoveryMode::kApprox);
  EXPECT_EQ(parsed->af_task_divergence_records, 1234);
  EXPECT_DOUBLE_EQ(parsed->af_max_certified_loss, 0.625);
  // Pre-af case files (no recovery_mode key) still parse, as exact mode.
  JsonValue json = ChaosCaseToJson(*generated);
  EXPECT_EQ(generated->recovery_mode, af::RecoveryMode::kPpa);
  auto legacy = ParseChaosCaseJson(json.Serialize());
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  EXPECT_EQ(legacy->recovery_mode, af::RecoveryMode::kPpa);
}

/// `object` without its member `key`.
JsonValue WithoutKey(const JsonValue& object, std::string_view key) {
  JsonValue copy = JsonValue::Object();
  for (const auto& [name, value] : object.members()) {
    if (name != key) {
      copy.Set(name, value);
    }
  }
  return copy;
}

TEST(ChaosCaseJsonTest, RejectsMissingFields) {
  auto missing = ParseChaosCaseJson("{\"seed\":1}");
  ASSERT_FALSE(missing.ok());
  EXPECT_THAT(missing.status().message(), HasSubstr("missing"));
  EXPECT_EQ(ParseChaosCaseJson("[1,2]").status().code(),
            StatusCode::kInvalidArgument);

  // Service cases require their own keys: every tenant's topology, and
  // the shared-pool shape.
  auto service = GenerateServiceCase(ChaosIntensity::Medium(), 777);
  ASSERT_TRUE(service.ok()) << service.status();
  const JsonValue json = ChaosCaseToJson(*service);
  JsonValue tenants = JsonValue::Array();
  tenants.Append(WithoutKey(json.Find("tenants")->at(0), "topology_spec"));
  JsonValue no_topology = json;
  no_topology.Set("tenants", std::move(tenants));
  auto missing_topology = ChaosCaseFromJson(no_topology);
  ASSERT_FALSE(missing_topology.ok());
  EXPECT_THAT(missing_topology.status().message(),
              HasSubstr("missing 'topology_spec'"));
  auto missing_slots =
      ChaosCaseFromJson(WithoutKey(json, "worker_slots_per_node"));
  ASSERT_FALSE(missing_slots.ok());
  EXPECT_THAT(missing_slots.status().message(),
              HasSubstr("missing 'worker_slots_per_node'"));
}

TEST(ChaosRunTest, GeneratedCaseExecutesCleanly) {
  auto generated = GenerateChaosCase(ChaosIntensity::Medium(), 42);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto report = RunChaosCase(*generated);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->seed, 42u);
  EXPECT_EQ(report->events_scheduled, generated->events.size());
  EXPECT_EQ(report->events_executed, generated->events.size());
  EXPECT_GT(report->sink_records, 0u);
  EXPECT_GE(report->end_seconds, generated->run_for_seconds);
  EXPECT_TRUE(report->violations.empty())
      << report->violations[0].invariant << ": "
      << report->violations[0].message;
}

TEST(ChaosRunTest, RejectsBrokenCases) {
  ChaosCase broken;
  broken.topology_spec = "not a spec";
  EXPECT_FALSE(RunChaosCase(broken).ok());
  auto generated = GenerateChaosCase(ChaosIntensity::Low(), 7);
  ASSERT_TRUE(generated.ok());
  ChaosCase negative = *generated;
  negative.run_for_seconds = -1.0;
  EXPECT_EQ(RunChaosCase(negative).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ChaosRunTest, FailingRunAttachesAFlightRecord) {
  // Plant a guaranteed invariant violation (an event targeting a node
  // that does not exist fails event-sanity) and check the report ships
  // the flight-recorder post-mortem alongside the violations.
  auto generated = GenerateChaosCase(ChaosIntensity::Medium(), 11);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ChaosCase failing = *generated;
  ScenarioEvent bad;
  bad.at = Duration::Seconds(1.0);
  bad.kind = ScenarioEvent::Kind::kNodeFailure;
  bad.node = 999;
  failing.events.insert(failing.events.begin(), bad);
  auto report = RunChaosCase(failing);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_FALSE(report->violations.empty());
  ASSERT_FALSE(report->flight_record.is_null());
  const JsonValue* events = report->flight_record.Find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u) << "the ring saw the run's trace events";
  ASSERT_NE(report->flight_record.Find("capacity"), nullptr);

  // Passing runs carry no post-mortem: the record stays JSON null and
  // out of the campaign artifact.
  auto clean = RunChaosCase(*generated);
  ASSERT_TRUE(clean.ok()) << clean.status();
  ASSERT_TRUE(clean->violations.empty());
  EXPECT_TRUE(clean->flight_record.is_null());
}

TEST(CampaignTest, FailingCaseJsonEmbedsTheFlightRecord) {
  // A hand-assembled campaign report around a real failing run: the
  // serialized artifact must embed the flight record inside the failing
  // case entry (the dump a CI artifact viewer opens first).
  auto generated = GenerateChaosCase(ChaosIntensity::Medium(), 11);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ChaosCase failing = *generated;
  ScenarioEvent bad;
  bad.at = Duration::Seconds(1.0);
  bad.kind = ScenarioEvent::Kind::kNodeFailure;
  bad.node = 999;
  failing.events.insert(failing.events.begin(), bad);
  auto run = RunChaosCase(failing);
  ASSERT_TRUE(run.ok()) << run.status();
  ASSERT_FALSE(run->violations.empty());

  CampaignReport campaign;
  campaign.options.num_seeds = 1;
  CampaignCaseResult result;
  result.index = 0;
  result.seed = 11;
  result.chaos_case = failing;
  result.report = *run;
  campaign.results.push_back(std::move(result));
  campaign.num_failed = 1;
  campaign.num_violations =
      static_cast<int>(campaign.results[0].report.violations.size());

  const JsonValue json = CampaignReportToJson(campaign);
  const JsonValue* cases = json.Find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_EQ(cases->size(), 1u);
  const JsonValue* flight = cases->at(0).Find("flight_record");
  ASSERT_NE(flight, nullptr) << "failing case artifact lacks the dump";
  EXPECT_GT(flight->Find("events")->size(), 0u);
}

TEST(CampaignTest, SmokeCampaignPassesAndIsJobCountInvariant) {
  for (const bool service_cases : {false, true}) {
    SCOPED_TRACE(service_cases ? "service cases" : "single-job cases");
    CampaignOptions options;
    options.base_seed = 99;
    options.num_seeds = 6;
    options.intensity = ChaosIntensity::Medium();
    options.service_cases = service_cases;
    options.jobs = 1;
    auto serial = RunCampaign(options);
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_EQ(serial->num_failed, 0);
    EXPECT_EQ(serial->num_violations, 0);
    ASSERT_EQ(serial->results.size(), 6u);
    for (const CampaignCaseResult& result : serial->results) {
      EXPECT_EQ(result.seed,
                DeriveSeed(options.base_seed,
                           static_cast<uint64_t>(result.index)));
      EXPECT_EQ(result.chaos_case.is_service(), service_cases);
    }
    options.jobs = 3;
    auto parallel = RunCampaign(options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(CampaignReportToJson(*serial).Serialize(),
              CampaignReportToJson(*parallel).Serialize());
  }
}

TEST(CampaignTest, RejectsBadOptions) {
  CampaignOptions options;
  options.num_seeds = -1;
  EXPECT_EQ(RunCampaign(options).status().code(),
            StatusCode::kInvalidArgument);
  options.num_seeds = 1;
  options.jobs = 0;
  EXPECT_EQ(RunCampaign(options).status().code(),
            StatusCode::kInvalidArgument);
}

/// A planted bug for the minimizer: the "failure" reproduces iff the
/// schedule still contains BOTH the node-1 failure and a reconcile. All
/// other events (and all structure) are noise the minimizer must strip.
CaseOracle PlantedBugOracle(int* calls) {
  return [calls](const ChaosCase& candidate)
             -> StatusOr<std::vector<ChaosViolation>> {
    if (calls != nullptr) {
      ++*calls;
    }
    bool has_failure = false;
    bool has_reconcile = false;
    for (const ScenarioEvent& event : candidate.events) {
      has_failure |= event.kind == ScenarioEvent::Kind::kNodeFailure &&
                     event.node == 1;
      has_reconcile |= event.kind == ScenarioEvent::Kind::kReconcile;
    }
    std::vector<ChaosViolation> violations;
    if (has_failure && has_reconcile) {
      violations.push_back({"planted-bug", "node-1 failure then reconcile"});
    }
    return violations;
  };
}

ChaosCase NoisyFailingCase() {
  ChaosCase chaos_case;
  chaos_case.seed = 1;
  chaos_case.topology_spec =
      "operator src 2 rate=40\n"
      "operator mid 2 selectivity=0.8\n"
      "operator sink 1 selectivity=0.8\n"
      "edge src mid one-to-one\n"
      "edge mid sink merge\n";
  chaos_case.num_worker_nodes = 8;
  chaos_case.num_standby_nodes = 6;
  chaos_case.budget = 2;
  chaos_case.initial_plan = {0, 2};
  chaos_case.run_for_seconds = 300.0;
  // 22 events; only #7 (fail-node 1) and #15 (reconcile) matter.
  for (int i = 0; i < 22; ++i) {
    ScenarioEvent event;
    event.at = Duration::Seconds(10.0 * (i + 1));
    if (i == 7) {
      event.kind = ScenarioEvent::Kind::kNodeFailure;
      event.node = 1;
    } else if (i == 15) {
      event.kind = ScenarioEvent::Kind::kReconcile;
    } else if (i % 3 == 0) {
      event.kind = ScenarioEvent::Kind::kNodeFailure;
      event.node = 2 + (i % 5);
    } else if (i % 3 == 1) {
      event.kind = ScenarioEvent::Kind::kReviveNode;
      event.node = 2 + (i % 5);
    } else {
      event.kind = ScenarioEvent::Kind::kApplyPlan;
      event.plan = {static_cast<TaskId>(i % 4)};
    }
    chaos_case.events.push_back(event);
  }
  return chaos_case;
}

/// A generated service case with the planted bug's two essential events
/// spliced into its 10-20 noise events. The fake oracle never runs it, so
/// the reconcile (not a service event) only marks the bug.
ChaosCase NoisyFailingServiceCase() {
  auto generated = GenerateServiceCase(ChaosIntensity::High(), 5);
  PPA_CHECK_OK(generated.status());
  ChaosCase chaos_case = *std::move(generated);
  ScenarioEvent failure;
  failure.at = chaos_case.events[2].at;
  failure.kind = ScenarioEvent::Kind::kNodeFailure;
  failure.node = 1;
  ScenarioEvent reconcile;
  reconcile.at = chaos_case.events[7].at;
  reconcile.kind = ScenarioEvent::Kind::kReconcile;
  chaos_case.events.insert(chaos_case.events.begin() + 7, reconcile);
  chaos_case.events.insert(chaos_case.events.begin() + 2, failure);
  return chaos_case;
}

void ExpectShrinksPlantedBug(const ChaosCase& failing) {
  int calls = 0;
  const CaseOracle oracle = PlantedBugOracle(&calls);
  auto minimized = MinimizeFailingCase(failing, oracle);
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  EXPECT_EQ(minimized->invariant, "planted-bug");
  EXPECT_LE(minimized->minimized.events.size(), 3u)
      << "ddmin must strip the noise events";
  EXPECT_EQ(minimized->oracle_calls, calls)
      << "every oracle call is accounted (baseline included)";

  // The minimized schedule still reproduces the same invariant failure...
  auto replay = oracle(minimized->minimized);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->size(), 1u);
  EXPECT_EQ((*replay)[0].invariant, "planted-bug");
  // ...and both essential events survived.
  bool has_failure = false;
  bool has_reconcile = false;
  for (const ScenarioEvent& event : minimized->minimized.events) {
    has_failure |= event.kind == ScenarioEvent::Kind::kNodeFailure &&
                   event.node == 1;
    has_reconcile |= event.kind == ScenarioEvent::Kind::kReconcile;
  }
  EXPECT_TRUE(has_failure);
  EXPECT_TRUE(has_reconcile);
  // Structure shrinking kicked in too: the oracle ignores structure, so
  // the cluster surplus and run duration must have collapsed.
  EXPECT_LT(minimized->minimized.num_standby_nodes,
            failing.num_standby_nodes);
  EXPECT_LT(minimized->minimized.run_for_seconds, failing.run_for_seconds);
  if (failing.is_service()) {
    // Tenants carry their own plans; the shrinker leaves them alone.
    EXPECT_EQ(minimized->minimized.tenants, failing.tenants);
  } else {
    EXPECT_LT(minimized->minimized.initial_plan.size(),
              failing.initial_plan.size());
  }
}

TEST(MinimizerTest, ShrinksPlantedBugToItsEssentialEvents) {
  const ChaosCase failing = NoisyFailingCase();
  ASSERT_GE(failing.events.size(), 20u);
  ExpectShrinksPlantedBug(failing);
}

// The same ddmin, offset and structure phases shrink a service case.
TEST(MinimizerTest, ShrinksPlantedBugInAServiceCase) {
  const ChaosCase failing = NoisyFailingServiceCase();
  ASSERT_GE(failing.events.size(), 12u);
  ASSERT_GE(failing.num_standby_nodes, 2);
  ExpectShrinksPlantedBug(failing);
}

TEST(MinimizerTest, PassingCaseIsRejected) {
  ChaosCase passing = NoisyFailingCase();
  passing.events.clear();
  auto minimized = MinimizeFailingCase(passing, PlantedBugOracle(nullptr));
  EXPECT_EQ(minimized.status().code(), StatusCode::kInvalidArgument);
}

TEST(MinimizerTest, RespectsOracleBudget) {
  int calls = 0;
  MinimizeOptions options;
  options.max_oracle_calls = 5;
  auto minimized = MinimizeFailingCase(NoisyFailingCase(),
                                       PlantedBugOracle(&calls), options);
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  EXPECT_LE(calls, 6) << "baseline + at most max_oracle_calls candidates";
}

TEST(MinimizerTest, BuiltinOracleShrinksARealFailure) {
  // Plant a real bug via an invariant the runtime cannot satisfy: an
  // event whose node id does not exist resolves to InvalidArgument,
  // which event-sanity reports. The minimizer must isolate that event.
  auto generated = GenerateChaosCase(ChaosIntensity::Medium(), 11);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ChaosCase failing = *generated;
  ScenarioEvent bad;
  bad.at = Duration::Seconds(1.0);
  bad.kind = ScenarioEvent::Kind::kNodeFailure;
  bad.node = 999;
  failing.events.insert(failing.events.begin() + 2, bad);
  auto minimized = MinimizeFailingCase(failing, BuiltinOracle());
  ASSERT_TRUE(minimized.ok()) << minimized.status();
  EXPECT_EQ(minimized->invariant, "event-sanity");
  ASSERT_EQ(minimized->minimized.events.size(), 1u);
  EXPECT_EQ(minimized->minimized.events[0].node, 999);
}

}  // namespace
}  // namespace chaos
}  // namespace ppa
