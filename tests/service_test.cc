#include <memory>
#include <string>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "chaos/generator.h"
#include "chaos/multi_tenant.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "runtime/cluster.h"
#include "runtime/scenario.h"
#include "service/arbiter.h"
#include "service/cluster_service.h"
#include "service/tenant.h"
#include "backend/sim_backend.h"

namespace ppa {
namespace {

using ::testing::HasSubstr;

constexpr char kChain2[] =
    "operator src 1 rate=20\n"
    "operator sink 1\n"
    "edge src sink one-to-one\n";

constexpr char kChain3[] =
    "operator src 1 rate=20\n"
    "operator mid 1\n"
    "operator sink 1\n"
    "edge src mid one-to-one\n"
    "edge mid sink one-to-one\n";

TimePoint At(double seconds) {
  return TimePoint::Zero() + Duration::Seconds(seconds);
}

// ---------------------------------------------------------------------------
// Arbitration policy.

TEST(ArbiterTest, OrdersByPriorityThenFidelityThenTenant) {
  std::vector<service::ArbitrationClaim> claims;
  claims.push_back({/*tenant=*/2, /*priority=*/1, /*fidelity_at_risk=*/0.5, 1});
  claims.push_back({/*tenant=*/0, /*priority=*/0, /*fidelity_at_risk=*/0.1, 1});
  claims.push_back({/*tenant=*/1, /*priority=*/0, /*fidelity_at_risk=*/0.9, 2});
  claims.push_back({/*tenant=*/3, /*priority=*/1, /*fidelity_at_risk=*/0.5, 1});
  const std::vector<service::ArbitrationClaim> order =
      service::ArbitrationOrder(std::move(claims));
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].tenant, 1);  // priority 0, most fidelity at risk.
  EXPECT_EQ(order[1].tenant, 0);
  EXPECT_EQ(order[2].tenant, 2);  // priority 1 tie broken by tenant id.
  EXPECT_EQ(order[3].tenant, 3);
}

// ---------------------------------------------------------------------------
// PlaceReplicaAuto determinism (referenced by the cluster.h contract).

TEST(ServiceTest, PlaceReplicaAutoBreaksTiesByLowestNodeId) {
  Cluster cluster(/*num_workers=*/3, /*num_standbys=*/3);
  PPA_CHECK_OK(cluster.PlacePrimary(0, 0));
  PPA_CHECK_OK(cluster.PlacePrimary(1, 1));
  PPA_CHECK_OK(cluster.PlacePrimary(2, 2));
  PPA_CHECK_OK(cluster.PlacePrimary(3, 0));

  // All standbys start equally loaded: ties break toward the lowest id.
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(0));
  EXPECT_EQ(cluster.NodeOfReplica(0), 3);
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(1));
  EXPECT_EQ(cluster.NodeOfReplica(1), 4);
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(2));
  EXPECT_EQ(cluster.NodeOfReplica(2), 5);
  // Every standby holds one replica again: the wrap-around tie also
  // resolves to the lowest node id.
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(3));
  EXPECT_EQ(cluster.NodeOfReplica(3), 3);
}

TEST(ServiceTest, PlaceReplicaAutoHonorsCeilingExceptForReplacement) {
  Cluster cluster(/*num_workers=*/2, /*num_standbys=*/2);
  PlacementConstraints constraints;
  constraints.replica_ceiling = 1;
  cluster.SetConstraints(constraints);
  PPA_CHECK_OK(cluster.PlacePrimary(0, 0));
  PPA_CHECK_OK(cluster.PlacePrimary(1, 1));
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(0));
  EXPECT_EQ(cluster.PlaceReplicaAuto(1).code(),
            StatusCode::kResourceExhausted);
  // Re-placing a task that already holds a replica never counts twice.
  EXPECT_TRUE(cluster.PlaceReplicaAuto(0).ok());
  EXPECT_EQ(cluster.PlacedReplicas(), 1);
}

TEST(ServiceTest, PromoteReplicaToPrimaryMovesPlacementAndFreesSlot) {
  Cluster cluster(/*num_workers=*/2, /*num_standbys=*/2);
  PPA_CHECK_OK(cluster.PlacePrimary(0, 0));
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(0));
  const int standby = cluster.NodeOfReplica(0);
  ASSERT_GE(standby, 2);

  PPA_CHECK_OK(cluster.PromoteReplicaToPrimary(0));
  EXPECT_EQ(cluster.NodeOfPrimary(0), standby);
  EXPECT_EQ(cluster.NodeOfReplica(0), -1);
  EXPECT_EQ(cluster.PlacedReplicas(), 0);
  EXPECT_EQ(cluster.pool().PrimaryLoad(standby), 1);
  EXPECT_EQ(cluster.pool().ReplicaLoad(standby), 0);
  EXPECT_EQ(cluster.pool().PrimaryLoad(0), 0);
  // A second promotion has nothing to promote.
  EXPECT_EQ(cluster.PromoteReplicaToPrimary(0).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Admission control edge cases.

TEST(ServiceTest, ZeroStandbyClusterRejectsReplicaBudgets) {
  backend::SimBackend loop;
  service::ServiceConfig config;
  config.num_worker_nodes = 2;
  config.num_standby_nodes = 0;
  config.worker_slots_per_node = 2;
  config.standby_slots_per_node = 1;
  service::ClusterService svc(config, &loop);

  service::TenantSpec wants_replicas;
  wants_replicas.topology_spec = kChain2;
  wants_replicas.replica_budget = 1;
  auto rejected = svc.Submit(std::move(wants_replicas));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_THAT(rejected.status().message(), HasSubstr("standby"));

  // Passive-only tenants (budget zero) still fit a standby-less cluster.
  service::TenantSpec passive;
  passive.topology_spec = kChain2;
  passive.replica_budget = 0;
  auto admitted = svc.Submit(std::move(passive));
  ASSERT_TRUE(admitted.ok()) << admitted.status();
  auto phase = svc.PhaseOf(*admitted);
  ASSERT_TRUE(phase.ok());
  EXPECT_EQ(*phase, service::TenantPhase::kRunning);
  EXPECT_EQ(svc.stats().rejected, 1);
  EXPECT_EQ(svc.stats().admitted, 1);
}

TEST(ServiceTest, JobLargerThanClusterIsRejectedNotQueued) {
  backend::SimBackend loop;
  service::ServiceConfig config;
  config.num_worker_nodes = 2;
  config.num_standby_nodes = 1;
  config.worker_slots_per_node = 1;
  service::ClusterService svc(config, &loop);

  service::TenantSpec spec;
  spec.topology_spec = kChain3;  // 3 tasks, capacity 2.
  auto submitted = svc.Submit(std::move(spec));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(svc.stats().rejected, 1);
  EXPECT_EQ(svc.stats().queued, 0);
  EXPECT_TRUE(svc.TenantIds().empty());
}

TEST(ServiceTest, QueueAdmitsByPriorityThenArrivalAfterEviction) {
  backend::SimBackend loop;
  service::ServiceConfig config;
  config.num_worker_nodes = 1;
  config.num_standby_nodes = 1;
  config.worker_slots_per_node = 2;
  service::ClusterService svc(config, &loop);

  service::TenantSpec a;
  a.topology_spec = kChain2;
  auto a_id = svc.Submit(std::move(a));
  ASSERT_TRUE(a_id.ok()) << a_id.status();

  service::TenantSpec c;
  c.topology_spec = kChain2;
  c.priority = 1;
  auto c_id = svc.Submit(std::move(c));
  ASSERT_TRUE(c_id.ok()) << c_id.status();

  // B arrives after C but outranks it: eviction must admit B first.
  service::TenantSpec b;
  b.topology_spec = kChain2;
  b.priority = 0;
  auto b_id = svc.Submit(std::move(b));
  ASSERT_TRUE(b_id.ok()) << b_id.status();

  EXPECT_EQ(*svc.PhaseOf(*a_id), service::TenantPhase::kRunning);
  EXPECT_EQ(*svc.PhaseOf(*b_id), service::TenantPhase::kQueued);
  EXPECT_EQ(*svc.PhaseOf(*c_id), service::TenantPhase::kQueued);

  PPA_CHECK_OK(svc.Evict(*a_id));
  EXPECT_EQ(*svc.PhaseOf(*a_id), service::TenantPhase::kEvicted);
  EXPECT_EQ(*svc.PhaseOf(*b_id), service::TenantPhase::kRunning);
  EXPECT_EQ(*svc.PhaseOf(*c_id), service::TenantPhase::kQueued);
  EXPECT_EQ(svc.stats().evicted, 1);
}

TEST(ServiceTest, ReviveDomainReadmitsQueuedTenant) {
  backend::SimBackend loop;
  service::ServiceConfig config;
  config.num_worker_nodes = 4;
  config.num_standby_nodes = 1;
  config.worker_slots_per_node = 2;
  service::ClusterService svc(config, &loop);
  PPA_CHECK_OK(svc.AssignDomain(0, 0));
  PPA_CHECK_OK(svc.AssignDomain(1, 0));
  PPA_CHECK_OK(svc.AssignDomain(2, 1));
  PPA_CHECK_OK(svc.AssignDomain(3, 1));
  PPA_CHECK_OK(svc.AssignDomain(4, 2));

  service::TenantSpec a;
  a.topology_spec = kChain2;
  auto a_id = svc.Submit(std::move(a));
  ASSERT_TRUE(a_id.ok()) << a_id.status();

  PPA_CHECK_OK(svc.InjectDomainFailure(1));

  // B only tolerates the failed domain's workers, so it has to wait.
  service::TenantSpec b;
  b.topology_spec = kChain2;
  b.worker_affinity = {2, 3};
  auto b_id = svc.Submit(std::move(b));
  ASSERT_TRUE(b_id.ok()) << b_id.status();
  EXPECT_EQ(*svc.PhaseOf(*b_id), service::TenantPhase::kQueued);

  PPA_CHECK_OK(svc.ReviveDomain(1));
  EXPECT_EQ(*svc.PhaseOf(*b_id), service::TenantPhase::kRunning);
  StreamingJob* job = svc.job(*b_id);
  ASSERT_NE(job, nullptr);
  for (TaskId t = 0; t < 2; ++t) {
    const int node = job->cluster().NodeOfPrimary(t);
    EXPECT_TRUE(node == 2 || node == 3) << "task " << t << " on " << node;
  }
}

// ---------------------------------------------------------------------------
// Standby rebalancing: degradation and re-promotion.

TEST(ServiceTest, StandbyLossDegradesLeastImportantTenantAndReviveRestores) {
  backend::SimBackend loop;
  service::ServiceConfig config;
  config.num_worker_nodes = 2;
  config.num_standby_nodes = 2;
  config.worker_slots_per_node = 2;
  config.standby_slots_per_node = 1;
  service::ClusterService svc(config, &loop);

  service::TenantSpec a;
  a.topology_spec = kChain2;
  a.replica_budget = 1;
  a.priority = 0;
  a.initial_plan = {1};
  auto a_id = svc.Submit(std::move(a));
  ASSERT_TRUE(a_id.ok()) << a_id.status();

  service::TenantSpec b;
  b.topology_spec = kChain2;
  b.replica_budget = 1;
  b.priority = 1;
  b.initial_plan = {1};
  auto b_id = svc.Submit(std::move(b));
  ASSERT_TRUE(b_id.ok()) << b_id.status();

  loop.RunUntil(At(5));
  ASSERT_EQ(svc.job(*b_id)->cluster().NodeOfReplica(1), 3);

  // Losing standby 3 halves the pool: the lower-priority tenant degrades
  // to passive-only fault tolerance.
  PPA_CHECK_OK(svc.InjectNodeFailure(3));
  EXPECT_EQ(*svc.PhaseOf(*a_id), service::TenantPhase::kRunning);
  EXPECT_EQ(*svc.PhaseOf(*b_id), service::TenantPhase::kDegraded);
  EXPECT_EQ(svc.stats().degradations, 1);
  EXPECT_EQ(svc.job(*b_id)->cluster().PlacedReplicas(), 0);

  PPA_CHECK_OK(svc.ReviveNode(3));
  EXPECT_EQ(*svc.PhaseOf(*b_id), service::TenantPhase::kRunning);
  EXPECT_EQ(svc.stats().promotions, 1);
  EXPECT_EQ(svc.job(*b_id)->cluster().NodeOfReplica(1), 3);
}

// ---------------------------------------------------------------------------
// The 16-tenant correlated-failure drill.

service::ServiceConfig DrillConfig() {
  service::ServiceConfig config;
  config.num_worker_nodes = 12;
  config.num_standby_nodes = 8;
  config.worker_slots_per_node = 4;
  config.standby_slots_per_node = 2;
  config.arbitration_slot = Duration::Seconds(2);
  return config;
}

/// Submits the 16 drill tenants: tenant i is a 3-task chain pinned to
/// failure domain i % 4 with priority i / 4 and one active replica.
void SubmitDrillTenants(service::ClusterService* svc) {
  for (int node = 0; node < 20; ++node) {
    PPA_CHECK_OK(svc->AssignDomain(node, node / 3));
  }
  for (int i = 0; i < 16; ++i) {
    const int d = i % 4;
    service::TenantSpec spec;
    spec.topology_spec = kChain3;
    spec.replica_budget = 1;
    spec.priority = i / 4;
    spec.initial_plan = {1};
    spec.worker_affinity = {3 * d, 3 * d + 1, 3 * d + 2};
    auto id = svc->Submit(std::move(spec));
    PPA_CHECK_OK(id.status());
    PPA_CHECK(*id == i);
  }
}

/// Runs the drill to completion and returns the service report bytes.
std::string RunDrillToReport(backend::ExecutionBackend* loop, service::ClusterService* svc) {
  SubmitDrillTenants(svc);
  loop->RunUntil(At(10));
  PPA_CHECK_OK(svc->InjectDomainFailure(0));
  double horizon = 10;
  while (!svc->AllRecovered() && horizon < 400) {
    horizon += 5;
    loop->RunUntil(At(horizon));
  }
  loop->RunUntil(At(horizon + 30));
  return svc->ReportToJson().Serialize();
}

TEST(ServiceDrillTest, DomainFailureArbitratesAcrossFourTenants) {
  backend::SimBackend loop;
  service::ClusterService svc(DrillConfig(), &loop);
  SubmitDrillTenants(&svc);
  EXPECT_EQ(svc.stats().admitted, 16);
  EXPECT_EQ(svc.stats().queued, 0);

  loop.RunUntil(At(10));
  PPA_CHECK_OK(svc.InjectDomainFailure(0));

  // Domain 0 hosts exactly the four tenants pinned to it, one per
  // priority class: the arbiter must rank them 0, 4, 8, 12 with
  // rank-proportional holds.
  ASSERT_EQ(svc.arbitration_log().size(), 1u);
  const service::ArbitrationDecision& decision = svc.arbitration_log().back();
  ASSERT_EQ(decision.order.size(), 4u);
  const int expected_tenants[] = {0, 4, 8, 12};
  for (size_t rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(decision.order[rank].claim.tenant, expected_tenants[rank]);
    EXPECT_EQ(decision.order[rank].claim.priority, static_cast<int>(rank));
    EXPECT_EQ(decision.order[rank].hold,
              Duration::Seconds(2) * static_cast<int64_t>(rank));
  }

  double horizon = 10;
  while (!svc.AllRecovered() && horizon < 400) {
    horizon += 5;
    loop.RunUntil(At(horizon));
  }
  EXPECT_TRUE(svc.AllRecovered());
  loop.RunUntil(At(horizon + 30));

  // The top-ranked tenant recovered immediately; every later rank
  // consumed at least one arbitration hold. Unaffected tenants never
  // entered arbitration.
  EXPECT_EQ(svc.HoldsApplied(0), 0);
  EXPECT_GE(svc.HoldsApplied(4), 1);
  EXPECT_GE(svc.HoldsApplied(8), 1);
  EXPECT_GE(svc.HoldsApplied(12), 1);
  EXPECT_EQ(svc.HoldsApplied(1), 0);
  for (int i = 0; i < 16; ++i) {
    const StreamingJob* job = svc.job(i);
    ASSERT_NE(job, nullptr) << "tenant " << i;
    EXPECT_FALSE(job->sink_records().empty()) << "tenant " << i;
  }
}

TEST(ServiceDrillTest, ReportIsByteIdenticalAcrossRuns) {
  backend::SimBackend loop_a;
  service::ClusterService svc_a(DrillConfig(), &loop_a);
  backend::SimBackend loop_b;
  service::ClusterService svc_b(DrillConfig(), &loop_b);
  EXPECT_EQ(RunDrillToReport(&loop_a, &svc_a),
            RunDrillToReport(&loop_b, &svc_b));
}

TEST(ServiceDrillTest, DrillPassesEveryMultiTenantInvariant) {
  // The same drill expressed as a multi-tenant chaos case: the runner
  // checks per-tenant exactly-once stable output against fault-free
  // goldens plus the service-level budget and arbitration invariants.
  chaos::MultiTenantCase mt_case;
  mt_case.seed = 16;
  mt_case.num_worker_nodes = 12;
  mt_case.num_standby_nodes = 8;
  mt_case.worker_slots_per_node = 4;
  mt_case.standby_slots_per_node = 2;
  mt_case.arbitration_slot_seconds = 2;
  mt_case.window_batches = 10;
  for (int node = 0; node < 20; ++node) {
    mt_case.node_domains.push_back(node / 3);
  }
  for (int i = 0; i < 16; ++i) {
    const int d = i % 4;
    chaos::TenantCase tenant;
    tenant.topology_spec = kChain3;
    tenant.replica_budget = 1;
    tenant.priority = i / 4;
    tenant.initial_plan = {1};
    tenant.worker_affinity = {3 * d, 3 * d + 1, 3 * d + 2};
    mt_case.tenants.push_back(std::move(tenant));
  }
  ScenarioEvent failure;
  failure.at = Duration::Seconds(10);
  failure.kind = ScenarioEvent::Kind::kDomainFailure;
  failure.domain = 0;
  mt_case.events.push_back(failure);
  mt_case.run_for_seconds = 60;

  auto report = chaos::RunMultiTenantCase(mt_case);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->tenants_admitted, 16u);
  EXPECT_EQ(report->tenants_queued, 0u);
  EXPECT_EQ(report->arbitrations, 1u);
  for (const chaos::ChaosViolation& violation : report->violations) {
    ADD_FAILURE() << "[" << violation.invariant << "] " << violation.message;
  }
}

// ---------------------------------------------------------------------------
// Multi-tenant chaos cases.

TEST(MultiTenantCaseTest, JsonRoundTrips) {
  auto generated =
      chaos::GenerateMultiTenantCase(chaos::ChaosIntensity::Medium(), 777);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto parsed = chaos::ParseMultiTenantCaseJson(
      chaos::MultiTenantCaseToJson(*generated).Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(*parsed, *generated);
}

TEST(MultiTenantCaseTest, SameSeedSameCase) {
  auto a = chaos::GenerateMultiTenantCase(chaos::ChaosIntensity::Medium(), 9);
  auto b = chaos::GenerateMultiTenantCase(chaos::ChaosIntensity::Medium(), 9);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  auto c = chaos::GenerateMultiTenantCase(chaos::ChaosIntensity::Medium(), 10);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(*a == *c);
}

TEST(MultiTenantCaseTest, GeneratedCaseRunsClean) {
  auto generated =
      chaos::GenerateMultiTenantCase(chaos::ChaosIntensity::Low(), 7);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto report = chaos::RunMultiTenantCase(*generated);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->seed, 7u);
  EXPECT_EQ(report->events_executed, report->events_scheduled);
  EXPECT_GT(report->sink_records, 0u);
  for (const chaos::ChaosViolation& violation : report->violations) {
    ADD_FAILURE() << "[" << violation.invariant << "] " << violation.message;
  }
}

// Case 38 of `chaos_hunt --multi --seeds 39 --intensity high`: eight
// tenants, two of which queue and are admitted while the service is
// mid-drive on the shared backend. Every such admission used to abort the
// run; it must now hold every invariant.
TEST(MultiTenantCaseTest, TenantsAdmittedMidDriveRunClean) {
  auto generated = chaos::GenerateMultiTenantCase(
      chaos::ChaosIntensity::High(), 16975997121914896222ull);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto report = chaos::RunMultiTenantCase(*generated);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->tenants_submitted, 8u);
  EXPECT_EQ(report->tenants_queued, 2u);
  EXPECT_EQ(report->events_executed, report->events_scheduled);
  for (const chaos::ChaosViolation& violation : report->violations) {
    ADD_FAILURE() << "[" << violation.invariant << "] " << violation.message;
  }
}

}  // namespace
}  // namespace ppa
