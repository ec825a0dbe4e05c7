#include <memory>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "engine/operators.h"
#include "runtime/cluster.h"
#include "runtime/domain_analysis.h"
#include "runtime/streaming_job.h"
#include "tests/test_topologies.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;

TEST(FailureDomainTest, DefaultDomainsAreSingletons) {
  Cluster cluster(3, 2);
  for (int node = 0; node < cluster.num_nodes(); ++node) {
    EXPECT_EQ(cluster.DomainOf(node), node);
    EXPECT_EQ(cluster.NodesInDomain(node), std::vector<int>{node});
  }
}

TEST(FailureDomainTest, AssignmentAndLookup) {
  Cluster cluster(4, 2);
  PPA_CHECK_OK(cluster.AssignDomain(0, 100));
  PPA_CHECK_OK(cluster.AssignDomain(1, 100));
  PPA_CHECK_OK(cluster.AssignDomain(4, 100));
  EXPECT_EQ(cluster.NodesInDomain(100), (std::vector<int>{0, 1, 4}));
  EXPECT_EQ(cluster.AssignDomain(99, 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(FailureDomainTest, ReassignmentMovesNodeBetweenDomains) {
  Cluster cluster(4, 2);
  PPA_CHECK_OK(cluster.AssignDomain(0, 100));
  PPA_CHECK_OK(cluster.AssignDomain(1, 100));
  PPA_CHECK_OK(cluster.AssignDomain(0, 200));
  EXPECT_EQ(cluster.DomainOf(0), 200);
  EXPECT_EQ(cluster.NodesInDomain(100), std::vector<int>{1});
  EXPECT_EQ(cluster.NodesInDomain(200), std::vector<int>{0});
  // The vacated singleton domain (node 0's default) stays empty.
  EXPECT_TRUE(cluster.NodesInDomain(0).empty());
}

TEST(FailureDomainTest, MembershipSurvivesFailureAndRevival) {
  Cluster cluster(3, 1);
  PPA_CHECK_OK(cluster.AssignDomain(0, 7));
  PPA_CHECK_OK(cluster.AssignDomain(2, 7));
  cluster.FailNode(2);
  // Domain membership is static wiring (the rack a node sits in), not
  // liveness: a dead node still belongs to its domain.
  EXPECT_EQ(cluster.NodesInDomain(7), (std::vector<int>{0, 2}));
  EXPECT_FALSE(cluster.NodeAlive(2));
  cluster.ReviveNode(2);
  EXPECT_TRUE(cluster.NodeAlive(2));
  EXPECT_EQ(cluster.NodesInDomain(7), (std::vector<int>{0, 2}));
}

TEST(FailureDomainTest, ReplicaPlacementFallsBackInsideDomainUnderScarcity) {
  Cluster cluster(2, 2);
  Topology topo = MakeChain(1, 1, 1, PartitionScheme::kOneToOne,
                            PartitionScheme::kOneToOne);
  cluster.PlacePrimariesRoundRobin(topo);
  // Every standby shares the primary's domain; out-of-domain placement is
  // impossible, but the replica must still land somewhere.
  PPA_CHECK_OK(cluster.AssignDomain(0, 7));
  PPA_CHECK_OK(cluster.AssignDomain(2, 7));
  PPA_CHECK_OK(cluster.AssignDomain(3, 7));
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(0));
  EXPECT_GE(cluster.NodeOfReplica(0), 2);
}

TEST(FailureDomainTest, ReplicaPlacementAvoidsPrimaryDomain) {
  Cluster cluster(2, 3);
  Topology topo = MakeChain(1, 1, 1, PartitionScheme::kOneToOne,
                            PartitionScheme::kOneToOne);
  cluster.PlacePrimariesRoundRobin(topo);
  // Primary of task 0 is on node 0; standby nodes 2 and 3 share its
  // domain, node 4 does not.
  PPA_CHECK_OK(cluster.AssignDomain(0, 7));
  PPA_CHECK_OK(cluster.AssignDomain(2, 7));
  PPA_CHECK_OK(cluster.AssignDomain(3, 7));
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(0));
  EXPECT_EQ(cluster.NodeOfReplica(0), 4)
      << "the only standby outside the primary's domain must win";
}

std::unique_ptr<StreamingJob> MakeDomainJob(backend::ExecutionBackend* loop) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid = b.AddOperator("mid", 2, InputCorrelation::kIndependent,
                                 0.5);
  OperatorId sink = b.AddOperator("sink", 1, InputCorrelation::kIndependent,
                                  0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  b.SetSourceRate(src, 40.0);
  auto topo = b.Build();
  PPA_CHECK(topo.ok());
  JobConfig cfg;
  cfg.ft_mode = FtMode::kPpa;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(4);
  cfg.num_worker_nodes = 5;
  cfg.num_standby_nodes = 2;
  cfg.stagger_checkpoints = false;
  auto job = std::make_unique<StreamingJob>(*std::move(topo), cfg, JobRuntimeDeps(loop));
  PPA_CHECK_OK(job->BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job->BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(4, 0.5);
    }));
  }
  return job;
}

TEST(FailureDomainTest, DomainFailureKillsItsNodesTogether) {
  backend::SimBackend loop;
  auto job = MakeDomainJob(&loop);
  // Worker nodes 2 and 3 (hosting mid[0] and mid[1]) share a rack.
  PPA_CHECK_OK(job->cluster().AssignDomain(2, 42));
  PPA_CHECK_OK(job->cluster().AssignDomain(3, 42));
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  PPA_CHECK_OK(job->InjectDomainFailure(42));
  EXPECT_FALSE(job->cluster().NodeAlive(2));
  EXPECT_FALSE(job->cluster().NodeAlive(3));
  EXPECT_FALSE(job->primary(2)->alive());
  EXPECT_FALSE(job->primary(3)->alive());
  EXPECT_TRUE(job->primary(0)->alive());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));
  EXPECT_TRUE(job->AllRecovered());
  ASSERT_EQ(job->recovery_reports().size(), 1u);
  EXPECT_EQ(job->recovery_reports()[0].specs.size(), 2u);
}

TEST(FailureDomainTest, UnknownDomainRejected) {
  backend::SimBackend loop;
  auto job = MakeDomainJob(&loop);
  PPA_CHECK_OK(job->Start());
  EXPECT_EQ(job->InjectDomainFailure(777).code(), StatusCode::kNotFound);
}

// Failing a domain whose nodes are all dead is rejected, as failing a dead
// node is, and as ClusterService rejects it.
TEST(FailureDomainTest, DeadDomainRejected) {
  backend::SimBackend loop;
  auto job = MakeDomainJob(&loop);
  PPA_CHECK_OK(job->cluster().AssignDomain(2, 42));
  PPA_CHECK_OK(job->cluster().AssignDomain(3, 42));
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  PPA_CHECK_OK(job->InjectDomainFailure(42));
  const int64_t failures =
      job->trace().CountOf(obs::TraceEventKind::kNodeFailure);
  EXPECT_EQ(job->InjectDomainFailure(42).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(job->trace().CountOf(obs::TraceEventKind::kNodeFailure), failures);
  // A partly revived domain fails again.
  PPA_CHECK_OK(job->ReviveNode(3));
  PPA_CHECK_OK(job->InjectDomainFailure(42));
  EXPECT_FALSE(job->cluster().NodeAlive(3));
}

TEST(FailureDomainTest, CrossDomainReplicaSurvivesRackOutage) {
  backend::SimBackend loop;
  auto job = MakeDomainJob(&loop);
  // Rack 1: worker 2 (mid[0]) and standby 5. Rack 2: standby 6.
  PPA_CHECK_OK(job->cluster().AssignDomain(2, 1));
  PPA_CHECK_OK(job->cluster().AssignDomain(5, 1));
  PPA_CHECK_OK(job->cluster().AssignDomain(6, 2));
  TaskSet plan(5);
  plan.Add(2);  // mid[0]
  PPA_CHECK_OK(job->SetActiveReplicaSet(plan));
  PPA_CHECK_OK(job->Start());
  // Domain-aware placement put the replica on standby 6 (outside rack 1).
  EXPECT_EQ(job->cluster().NodeOfReplica(2), 6);
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  PPA_CHECK_OK(job->InjectDomainFailure(1));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(20));
  ASSERT_EQ(job->recovery_reports().size(), 1u);
  // The replica survived the rack outage, so mid[0] recovered actively.
  for (const TaskRecoverySpec& spec : job->recovery_reports()[0].specs) {
    if (spec.task == 2) {
      EXPECT_EQ(spec.kind, RecoveryKind::kActiveReplica);
    }
  }
  EXPECT_TRUE(job->AllRecovered());
}

TEST(FailureDomainTest, ReviveNodeRestoresEligibility) {
  backend::SimBackend loop;
  auto job = MakeDomainJob(&loop);
  EXPECT_EQ(job->ReviveNode(0).code(), StatusCode::kFailedPrecondition)
      << "revival requires a started job";
  PPA_CHECK_OK(job->Start());
  EXPECT_EQ(job->ReviveNode(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job->ReviveNode(99).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job->ReviveNode(0).code(), StatusCode::kFailedPrecondition)
      << "node 0 is alive";
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  PPA_CHECK_OK(job->InjectNodeFailure(2));
  EXPECT_FALSE(job->cluster().NodeAlive(2));
  PPA_CHECK_OK(job->ReviveNode(2));
  EXPECT_TRUE(job->cluster().NodeAlive(2));
  EXPECT_EQ(job->trace().CountOf(obs::TraceEventKind::kNodeRevived), 1);
  // Revival restores node eligibility, never task runtimes: recovery is
  // still in flight for the primaries the failure killed.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));
  EXPECT_TRUE(job->AllRecovered());
}

TEST(FailureDomainTest, ReviveDomainRevivesOnlyDeadNodes) {
  backend::SimBackend loop;
  auto job = MakeDomainJob(&loop);
  PPA_CHECK_OK(job->cluster().AssignDomain(2, 42));
  PPA_CHECK_OK(job->cluster().AssignDomain(3, 42));
  PPA_CHECK_OK(job->Start());
  EXPECT_EQ(job->ReviveDomain(777).code(), StatusCode::kNotFound);
  EXPECT_EQ(job->ReviveDomain(42).code(), StatusCode::kFailedPrecondition)
      << "every node in the domain is alive";
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  PPA_CHECK_OK(job->InjectDomainFailure(42));
  EXPECT_FALSE(job->cluster().NodeAlive(2));
  EXPECT_FALSE(job->cluster().NodeAlive(3));
  PPA_CHECK_OK(job->ReviveDomain(42));
  EXPECT_TRUE(job->cluster().NodeAlive(2));
  EXPECT_TRUE(job->cluster().NodeAlive(3));
  EXPECT_EQ(job->trace().CountOf(obs::TraceEventKind::kNodeRevived), 2);
}

TEST(DomainAnalysisTest, CoverageAndFidelityPerDomain) {
  // src(2) one-to-one mid(2) merge sink(1); primaries round-robin over 3
  // workers: node 0 = {src[0], mid[1]}, node 1 = {src[1], sink}, node 2 =
  // {mid[0]}.
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid = b.AddOperator("mid", 2, InputCorrelation::kIndependent,
                                 0.5);
  OperatorId sink = b.AddOperator("sink", 1);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());
  (void)src;
  (void)mid;
  (void)sink;
  Cluster cluster(3, 2);
  cluster.PlacePrimariesRoundRobin(*topo);
  // Domain 50 = nodes 0 and 1 (all of src and mid); node 2 (sink) alone.
  PPA_CHECK_OK(cluster.AssignDomain(0, 50));
  PPA_CHECK_OK(cluster.AssignDomain(1, 50));

  TaskSet plan(topo->num_tasks());
  auto no_plan = AnalyzeDomainFailure(*topo, cluster, plan, 50);
  ASSERT_TRUE(no_plan.ok());
  EXPECT_EQ(no_plan->tasks_hosted, 4);  // src[0], src[1], mid[1], sink.
  EXPECT_EQ(no_plan->tasks_covered, 0);
  EXPECT_DOUBLE_EQ(no_plan->fidelity, 0.0);

  // Replicate src[0] (task 0) and the sink (task 4) on standbys outside
  // the domain; with mid[0] surviving on node 2, half the stream rides
  // through a domain-50 outage.
  plan.Add(0);
  plan.Add(4);
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(0));
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(4));
  auto with_plan = AnalyzeDomainFailure(*topo, cluster, plan, 50);
  ASSERT_TRUE(with_plan.ok());
  EXPECT_EQ(with_plan->tasks_covered, 2);
  EXPECT_NEAR(with_plan->fidelity, 0.5, 1e-12);

  // A replica placed INSIDE the failing domain provides no cover.
  Cluster bad(3, 2);
  bad.PlacePrimariesRoundRobin(*topo);
  PPA_CHECK_OK(bad.AssignDomain(0, 50));
  PPA_CHECK_OK(bad.AssignDomain(1, 50));
  PPA_CHECK_OK(bad.AssignDomain(3, 50));
  PPA_CHECK_OK(bad.AssignDomain(4, 50));  // Both standbys in the domain.
  PPA_CHECK_OK(bad.PlaceReplicaAuto(0));
  PPA_CHECK_OK(bad.PlaceReplicaAuto(4));
  auto uncovered = AnalyzeDomainFailure(*topo, bad, plan, 50);
  ASSERT_TRUE(uncovered.ok());
  EXPECT_EQ(uncovered->tasks_covered, 0);
  EXPECT_DOUBLE_EQ(uncovered->fidelity, 0.0);
}

TEST(DomainAnalysisTest, AllDomainsSortedWorstFirst) {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId sink = b.AddOperator("sink", 1);
  b.Connect(src, sink, PartitionScheme::kMerge);
  auto topo = b.Build();
  ASSERT_TRUE(topo.ok());
  Cluster cluster(3, 1);
  cluster.PlacePrimariesRoundRobin(*topo);
  TaskSet plan(topo->num_tasks());
  auto impacts = AnalyzeAllDomains(*topo, cluster, plan);
  ASSERT_TRUE(impacts.ok());
  // Three singleton domains host primaries; the sink's domain is worst
  // (fidelity 0), source domains lose half each.
  ASSERT_EQ(impacts->size(), 3u);
  EXPECT_DOUBLE_EQ((*impacts)[0].fidelity, 0.0);
  EXPECT_EQ((*impacts)[0].domain, 2);  // Node 2 hosts the sink.
  EXPECT_NEAR((*impacts)[1].fidelity, 0.5, 1e-12);
  EXPECT_NEAR((*impacts)[2].fidelity, 0.5, 1e-12);
  for (size_t i = 1; i < impacts->size(); ++i) {
    EXPECT_LE((*impacts)[i - 1].fidelity, (*impacts)[i].fidelity);
  }
}

}  // namespace
}  // namespace ppa
