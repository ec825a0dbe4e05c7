#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "common/hash.h"
#include "engine/operators.h"
#include "runtime/cluster.h"
#include "runtime/streaming_job.h"
#include "tests/test_topologies.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;

/// src(2) --one-to-one--> mid(2) --merge--> sink(1), sliding-window
/// operators, 20 tuples per source task per batch.
Topology MakeTestTopology() {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid = b.AddOperator("mid", 2, InputCorrelation::kIndependent,
                                 0.5);
  OperatorId sink = b.AddOperator("sink", 1, InputCorrelation::kIndependent,
                                  0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  b.SetSourceRate(src, 40.0);
  auto t = b.Build();
  PPA_CHECK(t.ok());
  return *std::move(t);
}

JobConfig MakeTestConfig(FtMode mode) {
  JobConfig cfg;
  cfg.ft_mode = mode;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(5);
  cfg.replica_sync_interval = Duration::Seconds(2);
  cfg.num_worker_nodes = 5;
  cfg.num_standby_nodes = 5;
  cfg.window_batches = 5;
  cfg.stagger_checkpoints = false;
  return cfg;
}

struct JobRun {
  std::vector<SinkRecord> records;
  std::vector<RecoveryReport> reports;
  int64_t peak_buffered_tuples = 0;
};

/// A node failure injected `at_seconds` into a run.
struct NodeFailure {
  int node = 0;
  double at_seconds = 0;
};

/// Runs the test topology for `seconds`, injecting `failures` in order.
JobRun RunFailures(FtMode mode, const std::vector<NodeFailure>& failures,
                   double seconds, const TaskSet* active_set = nullptr) {
  backend::SimBackend loop;
  Topology topo = MakeTestTopology();
  StreamingJob job(std::move(topo), MakeTestConfig(mode), JobRuntimeDeps(&loop));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  if (active_set != nullptr) {
    PPA_CHECK_OK(job.SetActiveReplicaSet(*active_set));
  }
  PPA_CHECK_OK(job.Start());
  for (const NodeFailure& f : failures) {
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(f.at_seconds));
    PPA_CHECK_OK(job.InjectNodeFailure(f.node));
  }
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(seconds));
  JobRun result;
  result.records = job.sink_records();
  result.reports = job.recovery_reports();
  result.peak_buffered_tuples = job.PeakBufferedTuples();
  return result;
}

/// Runs the test topology for `seconds`, optionally failing `fail_node` at
/// `fail_at_seconds`.
JobRun RunScenario(FtMode mode, int fail_node, double fail_at_seconds,
                   double seconds,
                   const TaskSet* active_set = nullptr) {
  std::vector<NodeFailure> failures;
  if (fail_node >= 0) {
    failures.push_back({fail_node, fail_at_seconds});
  }
  return RunFailures(mode, failures, seconds, active_set);
}

/// A digest of everything a run delivered and reported: each sink
/// record's tuple, flags and times, and each recovery report's times,
/// specs and schedule.
uint64_t RunDigest(const JobRun& run) {
  std::ostringstream os;
  for (const SinkRecord& r : run.records) {
    os << r.tuple.key << ' ' << r.tuple.value << ' ' << r.tuple.batch << ' '
       << r.tuple.seq << ' ' << r.tuple.producer << ' ' << r.tentative << ' '
       << r.correction << ' ' << r.emitted_at.micros() << ' '
       << r.ingest_at.micros() << '\n';
  }
  for (const RecoveryReport& rep : run.reports) {
    os << rep.failure_time.micros() << ' ' << rep.detection_time.micros()
       << ' ' << rep.arbitration_hold.micros() << '\n';
    for (const TaskRecoverySpec& spec : rep.specs) {
      os << spec.task << ' ' << static_cast<int>(spec.kind) << ' '
         << spec.replay_tuples << ' ' << spec.state_tuples << ' '
         << spec.resend_tuples << '\n';
    }
    for (const auto& [task, offset] : rep.schedule.completion) {
      os << task << ' ' << offset.micros() << '\n';
    }
  }
  return Fnv1a64(os.str());
}

void ExpectSameRecords(const std::vector<SinkRecord>& a,
                       const std::vector<SinkRecord>& b,
                       int64_t from_batch = 0,
                       int64_t to_batch = INT64_MAX) {
  auto filter = [&](const std::vector<SinkRecord>& in) {
    std::vector<Tuple> out;
    for (const SinkRecord& r : in) {
      if (r.tuple.batch >= from_batch && r.tuple.batch <= to_batch) {
        out.push_back(r.tuple);
      }
    }
    return out;
  };
  const std::vector<Tuple> ta = filter(a);
  const std::vector<Tuple> tb = filter(b);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i], tb[i]) << "record " << i << " differs";
  }
}

TEST(StreamingJobTest, CleanRunIsDeterministic) {
  JobRun a = RunScenario(FtMode::kCheckpoint, -1, 0, 30);
  JobRun b = RunScenario(FtMode::kCheckpoint, -1, 0, 30);
  EXPECT_FALSE(a.records.empty());
  ExpectSameRecords(a.records, b.records);
  EXPECT_TRUE(a.reports.empty());
  for (const SinkRecord& r : a.records) {
    EXPECT_FALSE(r.tentative);
  }
}

TEST(StreamingJobTest, UnboundOperatorFailsStart) {
  backend::SimBackend loop;
  StreamingJob job(MakeTestTopology(), MakeTestConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(&loop));
  EXPECT_EQ(job.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingJobTest, BindValidation) {
  backend::SimBackend loop;
  StreamingJob job(MakeTestTopology(), MakeTestConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(&loop));
  // Binding an operator factory to a source (and vice versa) is rejected.
  EXPECT_FALSE(job.BindOperator(0, [] {
                    return std::make_unique<PassThroughOperator>();
                  }).ok());
  EXPECT_FALSE(job.BindSource(1, [] {
                    return std::make_unique<SyntheticSource>(1, 4, 1);
                  }).ok());
  EXPECT_FALSE(job.BindOperator(99, nullptr).ok());
}

// The central recovery-correctness property: after a single-node failure
// under checkpoint fault tolerance, the sink's output is eventually
// identical to the failure-free run — the restored state plus upstream
// buffer replay reproduce every batch (no tentative mode: downstream waits
// instead of skipping).
TEST(StreamingJobTest, CheckpointRecoveryReproducesCompleteOutput) {
  JobRun clean = RunScenario(FtMode::kCheckpoint, -1, 0, 40);
  // Node 2 hosts mid[0] under round-robin placement of 5 tasks on 5 nodes.
  JobRun failed = RunScenario(FtMode::kCheckpoint, 2, 10.5, 40);
  ASSERT_EQ(failed.reports.size(), 1u);
  EXPECT_GT(failed.reports[0].TotalLatency(), Duration::Zero());
  ExpectSameRecords(clean.records, failed.records);
  for (const SinkRecord& r : failed.records) {
    EXPECT_FALSE(r.tentative);
  }
}

TEST(StreamingJobTest, CheckpointRecoveryOfSourceTask) {
  JobRun clean = RunScenario(FtMode::kCheckpoint, -1, 0, 40);
  // Node 0 hosts src[0].
  JobRun failed = RunScenario(FtMode::kCheckpoint, 0, 12.5, 40);
  ASSERT_EQ(failed.reports.size(), 1u);
  ExpectSameRecords(clean.records, failed.records);
}

TEST(StreamingJobTest, ActiveReplicaTakeoverIsSeamlessAndFast) {
  JobRun clean = RunScenario(FtMode::kCheckpoint, -1, 0, 40);
  JobRun active = RunScenario(FtMode::kActiveReplication, 2, 10.5, 40);
  ASSERT_EQ(active.reports.size(), 1u);
  ExpectSameRecords(clean.records, active.records);

  JobRun passive = RunScenario(FtMode::kCheckpoint, 2, 10.5, 40);
  ASSERT_EQ(passive.reports.size(), 1u);
  EXPECT_LT(active.reports[0].TotalLatency(),
            passive.reports[0].TotalLatency());
}

TEST(StreamingJobTest, SourceReplayRecoversWindowedState) {
  JobRun clean = RunScenario(FtMode::kSourceReplay, -1, 0, 50);
  JobRun failed = RunScenario(FtMode::kSourceReplay, 2, 10.5, 50);
  ASSERT_EQ(failed.reports.size(), 1u);
  // Storm-style replay rebuilds the sliding windows from the source; after
  // the replayed window has fully slid past the outage, outputs converge
  // to the failure-free run.
  ExpectSameRecords(clean.records, failed.records, /*from_batch=*/35);
}

// Source replay restarts a failed task at frontier + 1 - window_batches
// and re-reads live upstream buffers from there, so the replica-sync timer
// trims every primary below the older of that level and its downstream
// consumption. Two failures, of a window task (node 2) and then of a
// source (node 0), recover exactly as they did while the buffers only
// grew: the digest, record count and recovery reports are those of the
// untrimmed engine, whose peak was 4,820 buffered tuples.
TEST(StreamingJobTest, SourceReplayTrimsBuffersWithoutChangingRecovery) {
  const JobRun run =
      RunFailures(FtMode::kSourceReplay, {{2, 10.5}, {0, 30.5}}, 90);
  ASSERT_EQ(run.reports.size(), 2u);
  EXPECT_EQ(run.records.size(), 910u);
  EXPECT_EQ(RunDigest(run), uint64_t{15476225329457251206u});
  // Each batch buffers 2 x 20 source and 2 x 10 window tuples; a task
  // keeps its last window_batches (5) plus the 2 produced between syncs.
  EXPECT_LE(run.peak_buffered_tuples, (5 + 2) * 60);
}

TEST(StreamingJobTest, PpaProducesTentativeOutputsDuringRecovery) {
  TaskSet active(5);
  active.Add(3);  // mid[1] gets a replica; mid[0] (task 2) is passive-only.
  JobRun clean = RunScenario(FtMode::kPpa, -1, 0, 60, &active);
  JobRun failed = RunScenario(FtMode::kPpa, 2, 10.5, 60, &active);
  ASSERT_EQ(failed.reports.size(), 1u);
  bool any_tentative = false;
  for (const SinkRecord& r : failed.records) {
    any_tentative |= r.tentative;
  }
  EXPECT_TRUE(any_tentative)
      << "tentative outputs must flow while the passive task recovers";
  // After recovery and a full window, outputs converge to the clean run.
  ExpectSameRecords(clean.records, failed.records, /*from_batch=*/45);
}

TEST(StreamingJobTest, CorrelatedFailureRecoversEverything) {
  backend::SimBackend loop;
  StreamingJob job(MakeTestTopology(), MakeTestConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(&loop));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  PPA_CHECK_OK(job.Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(12.5));
  PPA_CHECK_OK(job.InjectCorrelatedFailure());
  EXPECT_FALSE(job.AllRecovered());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  EXPECT_TRUE(job.AllRecovered());
  ASSERT_EQ(job.recovery_reports().size(), 1u);
  // All three non-source tasks failed together.
  EXPECT_EQ(job.recovery_reports()[0].specs.size(), 3u);
}

TEST(StreamingJobTest, CorrelatedFailureSlowerThanSingleFailure) {
  JobRun single = RunScenario(FtMode::kCheckpoint, 2, 10.5, 40);
  backend::SimBackend loop;
  StreamingJob job(MakeTestTopology(), MakeTestConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(&loop));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  PPA_CHECK_OK(job.Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
  PPA_CHECK_OK(job.InjectCorrelatedFailure());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));
  ASSERT_EQ(job.recovery_reports().size(), 1u);
  ASSERT_EQ(single.reports.size(), 1u);
  EXPECT_GT(job.recovery_reports()[0].TotalLatency(),
            single.reports[0].TotalLatency());
}

TEST(StreamingJobTest, ShorterCheckpointIntervalShortensRecovery) {
  JobConfig fast_cfg = MakeTestConfig(FtMode::kCheckpoint);
  fast_cfg.checkpoint_interval = Duration::Seconds(2);
  JobConfig slow_cfg = MakeTestConfig(FtMode::kCheckpoint);
  slow_cfg.checkpoint_interval = Duration::Seconds(15);

  auto run = [](JobConfig cfg) {
    backend::SimBackend loop;
    StreamingJob job(MakeTestTopology(), cfg, JobRuntimeDeps(&loop));
    PPA_CHECK_OK(job.BindSource(0, [] {
      return std::make_unique<SyntheticSource>(200, 64, 7);
    }));
    for (OperatorId op : {1, 2}) {
      PPA_CHECK_OK(job.BindOperator(op, [] {
        return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
      }));
    }
    PPA_CHECK_OK(job.Start());
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(17.5));
    PPA_CHECK_OK(job.InjectNodeFailure(2));
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
    PPA_CHECK(job.recovery_reports().size() == 1);
    return job.recovery_reports()[0].TotalLatency();
  };
  EXPECT_LT(run(fast_cfg).seconds(), run(slow_cfg).seconds());
}

TEST(StreamingJobTest, CheckpointCostAccounting) {
  auto run = [](Duration interval) {
    backend::SimBackend loop;
    JobConfig cfg = MakeTestConfig(FtMode::kCheckpoint);
    cfg.checkpoint_interval = interval;
    StreamingJob job(MakeTestTopology(), cfg, JobRuntimeDeps(&loop));
    PPA_CHECK_OK(job.BindSource(0, [] {
      return std::make_unique<SyntheticSource>(100, 64, 7);
    }));
    for (OperatorId op : {1, 2}) {
      PPA_CHECK_OK(job.BindOperator(op, [] {
        return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
      }));
    }
    PPA_CHECK_OK(job.Start());
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
    double ratio = 0;
    for (TaskId t = 2; t <= 3; ++t) {
      ratio += job.CheckpointCostUs(t) / job.ProcessingCostUs(t);
    }
    return ratio / 2;
  };
  const double fast = run(Duration::Seconds(2));
  const double slow = run(Duration::Seconds(10));
  EXPECT_GT(fast, 0.0);
  EXPECT_GT(slow, 0.0);
  EXPECT_GT(fast, slow) << "shorter intervals must cost more CPU";
}

TEST(StreamingJobTest, FailedRunsAreDeterministicToo) {
  JobRun a = RunScenario(FtMode::kCheckpoint, 2, 10.5, 40);
  JobRun b = RunScenario(FtMode::kCheckpoint, 2, 10.5, 40);
  ExpectSameRecords(a.records, b.records);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  EXPECT_EQ(a.reports[0].TotalLatency().micros(),
            b.reports[0].TotalLatency().micros());
}

/// left(2), right(2) --merge--> join(1). With `right_edge_first` the
/// right edge is connected first, so the join's `in_substreams` list the
/// right tasks (higher ids) before the left ones: not producer order.
std::vector<SinkRecord> RunTwoInputJob(bool right_edge_first) {
  TopologyBuilder b;
  OperatorId left = b.AddOperator("left", 2);
  OperatorId right = b.AddOperator("right", 2);
  OperatorId join = b.AddOperator("join", 1, InputCorrelation::kCorrelated);
  if (right_edge_first) {
    b.Connect(right, join, PartitionScheme::kMerge);
    b.Connect(left, join, PartitionScheme::kMerge);
  } else {
    b.Connect(left, join, PartitionScheme::kMerge);
    b.Connect(right, join, PartitionScheme::kMerge);
  }
  b.SetSourceRate(left, 10.0).SetSourceRate(right, 10.0);
  auto built = b.Build();
  PPA_CHECK(built.ok());
  Topology topo = *std::move(built);
  std::vector<TaskId> producers;
  for (int si : topo.task(topo.op(join).tasks[0]).in_substreams) {
    producers.push_back(topo.substreams()[si].from);
  }
  PPA_CHECK(std::is_sorted(producers.begin(), producers.end()) !=
            right_edge_first);

  backend::SimBackend loop;
  StreamingJob job(std::move(topo), MakeTestConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(&loop));
  PPA_CHECK_OK(job.BindSource(left, [] {
    return std::make_unique<SyntheticSource>(6, 16, 3);
  }));
  PPA_CHECK_OK(job.BindSource(right, [] {
    return std::make_unique<SyntheticSource>(4, 16, 11);
  }));
  // Pass-through emits in input order, so the sink stream shows the
  // order the join task consumed its batch in.
  PPA_CHECK_OK(job.BindOperator(join, [] {
    return std::make_unique<PassThroughOperator>();
  }));
  PPA_CHECK_OK(job.Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(20));
  return job.sink_records();
}

TEST(StreamingJobTest, JoinEdgesOutOfProducerOrderMatchSortedInputs) {
  const std::vector<SinkRecord> sorted = RunTwoInputJob(false);
  const std::vector<SinkRecord> unsorted = RunTwoInputJob(true);
  ASSERT_FALSE(sorted.empty());
  ExpectSameRecords(sorted, unsorted);
}

TEST(StreamingJobTest, InjectionValidation) {
  backend::SimBackend loop;
  StreamingJob job(MakeTestTopology(), MakeTestConfig(FtMode::kCheckpoint),
                   JobRuntimeDeps(&loop));
  EXPECT_EQ(job.InjectNodeFailure(0).code(),
            StatusCode::kFailedPrecondition);  // Not started.
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(5, 8, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(3, 0.5);
    }));
  }
  PPA_CHECK_OK(job.Start());
  EXPECT_EQ(job.InjectNodeFailure(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(job.InjectNodeFailure(999).code(), StatusCode::kInvalidArgument);
  PPA_CHECK_OK(job.InjectNodeFailure(1));
  EXPECT_EQ(job.InjectNodeFailure(1).code(), StatusCode::kFailedPrecondition);
}

/// The recovery kind the master last chose for `t`, if it detected a
/// failure of `t` at all.
std::optional<RecoveryKind> LastRecoveryKind(const StreamingJob& job,
                                             TaskId t) {
  std::optional<RecoveryKind> kind;
  for (const RecoveryReport& report : job.recovery_reports()) {
    for (const TaskRecoverySpec& spec : report.specs) {
      if (spec.task == t) {
        kind = spec.kind;
      }
    }
  }
  return kind;
}

/// The one-pass property of StreamingJob's data plane: once an engine
/// event returns, no alive primary or replica can still run a batch up to
/// the frontier — its next batch waits on a dead upstream that has not
/// been punctured. Returns how many runtimes were waiting. Assumes every
/// task fails at most once, so a detected dead task is punctured exactly
/// when the master did not recover it from an active replica.
int ExpectNothingRunnable(StreamingJob& job, const std::string& when) {
  const Topology& topo = job.topology();
  int waiting = 0;
  for (TaskId t = 0; t < topo.num_tasks(); ++t) {
    for (const TaskRuntime* rt : {job.primary(t), job.replica(t)}) {
      if (rt == nullptr || !rt->alive() || rt->next_batch() > job.frontier()) {
        continue;
      }
      const int64_t b = rt->next_batch();
      bool blocked = false;
      for (int si : topo.task(t).in_substreams) {
        const TaskId u = topo.substreams()[si].from;
        const TaskRuntime* up = job.primary(u);
        const std::optional<RecoveryKind> kind = LastRecoveryKind(job, u);
        const bool punctured =
            kind.has_value() && *kind != RecoveryKind::kActiveReplica;
        blocked |= !up->alive() && up->FindBatch(b) == nullptr && !punctured;
      }
      EXPECT_TRUE(blocked) << when << ": " << topo.TaskLabel(t)
                           << (rt == job.replica(t) ? " replica" : "")
                           << " could still run batch " << b;
      ++waiting;
    }
  }
  return waiting;
}

TEST(StreamingJobTest, OnePassLeavesNoRunnableTask) {
  backend::SimBackend loop;
  StreamingJob job(MakeTestTopology(), MakeTestConfig(FtMode::kPpa),
                   JobRuntimeDeps(&loop));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  TaskSet active(5);
  active.Add(3);  // mid[1] is taken over by its replica; mid[0] restores.
  PPA_CHECK_OK(job.SetActiveReplicaSet(active));
  PPA_CHECK_OK(job.Start());

  int waiting = 0;
  auto step_until = [&](double seconds) {
    while (loop.now() < TimePoint::Zero() + Duration::Seconds(seconds)) {
      loop.RunUntil(loop.now() + Duration::Millis(500));
      waiting += ExpectNothingRunnable(
          job, "t=" + std::to_string(loop.now().seconds()));
    }
  };
  step_until(12.5);
  // Correlated failure of both mid tasks (nodes 2 and 3): until detection
  // the sink waits on two dead, unpunctured upstreams.
  PPA_CHECK_OK(job.InjectNodeFailure(2));
  PPA_CHECK_OK(job.InjectNodeFailure(3));
  waiting += ExpectNothingRunnable(job, "after the failure");
  step_until(30);
  ASSERT_TRUE(job.AllRecovered());
  ASSERT_EQ(job.recovery_reports().size(), 1u);
  EXPECT_EQ(LastRecoveryKind(job, 2), RecoveryKind::kCheckpoint);
  EXPECT_EQ(LastRecoveryKind(job, 3), RecoveryKind::kActiveReplica);
  // New replicas catch up from the upstream buffers inside the apply.
  TaskSet plan(5);
  plan.Add(2);
  plan.Add(4);
  PPA_CHECK_OK(job.ApplyActiveReplicaSet(plan));
  ASSERT_NE(job.replica(2), nullptr);
  ASSERT_NE(job.replica(4), nullptr);
  waiting += ExpectNothingRunnable(job, "after ApplyActiveReplicaSet");
  step_until(40);

  EXPECT_GT(waiting, 0) << "the sink must have waited for detection";
  bool any_tentative = false;
  for (const SinkRecord& r : job.sink_records()) {
    any_tentative |= r.tentative;
  }
  EXPECT_TRUE(any_tentative) << "punctuations must have fed the sink";
  EXPECT_EQ(job.replica(2)->next_batch(), job.frontier() + 1);
  EXPECT_EQ(job.replica(4)->next_batch(), job.frontier() + 1);
}

TEST(ClusterTest, PlacementAndFailure) {
  Cluster cluster(3, 2);
  EXPECT_EQ(cluster.num_nodes(), 5);
  EXPECT_FALSE(cluster.IsStandby(2));
  EXPECT_TRUE(cluster.IsStandby(3));
  Topology topo = MakeTestTopology();
  // A pin made before the round-robin placement survives it.
  PPA_CHECK_OK(cluster.PlacePrimary(1, 2));
  cluster.PlacePrimariesRoundRobin(topo);
  EXPECT_EQ(cluster.NodeOfPrimary(0), 0);
  EXPECT_EQ(cluster.NodeOfPrimary(1), 2);
  EXPECT_EQ(cluster.NodeOfPrimary(2), 2);
  EXPECT_EQ(cluster.NodeOfPrimary(3), 0);  // 3 % 3 workers.
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(1));
  PPA_CHECK_OK(cluster.PlaceReplicaAuto(2));
  EXPECT_EQ(cluster.NodeOfReplica(1), 3);
  EXPECT_EQ(cluster.NodeOfReplica(2), 4);
  EXPECT_EQ(cluster.NodeOfReplica(0), -1);
  EXPECT_TRUE(cluster.NodeAlive(0));
  cluster.FailNode(0);
  EXPECT_FALSE(cluster.NodeAlive(0));
  cluster.ReviveNode(0);
  EXPECT_TRUE(cluster.NodeAlive(0));
  EXPECT_EQ(cluster.PrimariesOn(0), (std::vector<TaskId>{0, 3}));
  EXPECT_EQ(cluster.PlacePrimary(0, 4).code(),
            StatusCode::kInvalidArgument);  // Standby node.
}

}  // namespace
}  // namespace ppa
