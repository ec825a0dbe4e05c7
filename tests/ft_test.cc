#include <gtest/gtest.h>

#include "ft/checkpoint.h"
#include "ft/recovery_model.h"
#include "tests/test_topologies.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;

TEST(CheckpointStoreTest, LatestWinsAndCoveredBatch) {
  CheckpointStore store;
  EXPECT_EQ(store.Latest(0), nullptr);
  EXPECT_EQ(store.CoveredBatch(0), 0);
  store.Put(TaskCheckpoint{0, 5, "v1", 100});
  store.Put(TaskCheckpoint{1, 3, "x", 10});
  ASSERT_NE(store.Latest(0), nullptr);
  EXPECT_EQ(store.Latest(0)->blob, "v1");
  EXPECT_EQ(store.CoveredBatch(0), 5);
  store.Put(TaskCheckpoint{0, 9, "v2", 120});
  EXPECT_EQ(store.Latest(0)->blob, "v2");
  EXPECT_EQ(store.CoveredBatch(0), 9);
  EXPECT_EQ(store.size(), 2u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

RecoveryCostModel SimpleModel() {
  RecoveryCostModel m;
  m.replay_rate_tuples_per_sec = 1000.0;
  m.state_load_rate_tuples_per_sec = 10000.0;
  m.task_restart_delay = Duration::Seconds(1.0);
  m.replica_activation_delay = Duration::Millis(100);
  m.sync_handshake_delay = Duration::Millis(500);
  m.replica_resend_rate_tuples_per_sec = 10000.0;
  return m;
}

TEST(RecoveryModelTest, ActiveReplicaLatencyIsActivationPlusResend) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  TaskRecoverySpec spec;
  spec.task = t.op(1).tasks[0];
  spec.kind = RecoveryKind::kActiveReplica;
  spec.resend_tuples = 5000;
  RecoverySchedule s = ComputeRecoverySchedule(t, {spec}, SimpleModel());
  // 100 ms activation + 5000/10000 s resend = 0.6 s.
  EXPECT_NEAR(s.completion.at(spec.task).seconds(), 0.6, 1e-9);
}

TEST(RecoveryModelTest, CheckpointLatencyIncludesLoadAndReplay) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  TaskRecoverySpec spec;
  spec.task = t.op(1).tasks[0];
  spec.kind = RecoveryKind::kCheckpoint;
  spec.state_tuples = 20000;  // 2 s load.
  spec.replay_tuples = 3000;  // 3 s replay.
  RecoverySchedule s = ComputeRecoverySchedule(t, {spec}, SimpleModel());
  // restart 1 s + load 2 s + replay 3 s.
  EXPECT_NEAR(s.completion.at(spec.task).seconds(), 6.0, 1e-9);
}

TEST(RecoveryModelTest, CorrelatedFailureCascadesDownstream) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  const TaskId src = t.op(0).tasks[0];
  const TaskId mid = t.op(1).tasks[0];
  const TaskId sink = t.op(2).tasks[0];
  RecoveryCostModel m = SimpleModel();
  std::vector<TaskRecoverySpec> specs;
  for (TaskId task : {src, mid, sink}) {
    TaskRecoverySpec spec;
    spec.task = task;
    spec.kind = RecoveryKind::kCheckpoint;
    spec.replay_tuples = 1000;  // 1 s each.
    specs.push_back(spec);
  }
  RecoverySchedule s = ComputeRecoverySchedule(t, specs, m);
  // src: restart 1 + replay 1 = 2.
  EXPECT_NEAR(s.completion.at(src).seconds(), 2.0, 1e-9);
  // mid waits for src + handshake: max(1, 2.5) + 1 = 3.5.
  EXPECT_NEAR(s.completion.at(mid).seconds(), 3.5, 1e-9);
  // sink waits for mid: max(1, 4.0) + 1 = 5.0.
  EXPECT_NEAR(s.completion.at(sink).seconds(), 5.0, 1e-9);
  EXPECT_NEAR(s.MaxLatency().seconds(), 5.0, 1e-9);
  EXPECT_NEAR(s.MaxLatencyOf({src, mid}).seconds(), 3.5, 1e-9);
}

TEST(RecoveryModelTest, AliveUpstreamDoesNotDelayDownstream) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  const TaskId sink = t.op(2).tasks[0];
  TaskRecoverySpec spec;
  spec.task = sink;
  spec.kind = RecoveryKind::kCheckpoint;
  spec.replay_tuples = 1000;
  RecoverySchedule s = ComputeRecoverySchedule(t, {spec}, SimpleModel());
  // No failed upstream: restart 1 + replay 1.
  EXPECT_NEAR(s.completion.at(sink).seconds(), 2.0, 1e-9);
}

TEST(RecoveryModelTest, ActiveReplicaBreaksTheCascade) {
  // If the middle task has an active replica, the sink's checkpoint
  // recovery does not wait for a slow middle recovery.
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  const TaskId mid = t.op(1).tasks[0];
  const TaskId sink = t.op(2).tasks[0];
  RecoveryCostModel m = SimpleModel();

  TaskRecoverySpec mid_active;
  mid_active.task = mid;
  mid_active.kind = RecoveryKind::kActiveReplica;
  mid_active.resend_tuples = 0;
  TaskRecoverySpec sink_cp;
  sink_cp.task = sink;
  sink_cp.kind = RecoveryKind::kCheckpoint;
  sink_cp.replay_tuples = 1000;
  RecoverySchedule with_active =
      ComputeRecoverySchedule(t, {mid_active, sink_cp}, m);

  TaskRecoverySpec mid_cp = mid_active;
  mid_cp.kind = RecoveryKind::kCheckpoint;
  mid_cp.replay_tuples = 10000;  // 10 s.
  RecoverySchedule with_passive =
      ComputeRecoverySchedule(t, {mid_cp, sink_cp}, m);

  EXPECT_LT(with_active.completion.at(sink).seconds(),
            with_passive.completion.at(sink).seconds());
}

TEST(RecoveryModelTest, SourceReplayHasNoStateLoad) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  TaskRecoverySpec spec;
  spec.task = t.op(0).tasks[0];
  spec.kind = RecoveryKind::kSourceReplay;
  spec.replay_tuples = 2000;
  spec.state_tuples = 999999;  // Must be ignored.
  RecoverySchedule s = ComputeRecoverySchedule(t, {spec}, SimpleModel());
  EXPECT_NEAR(s.completion.at(spec.task).seconds(), 3.0, 1e-9);
}

TEST(RecoveryModelTest, EmptySpecListYieldsEmptySchedule) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  RecoverySchedule s = ComputeRecoverySchedule(t, {}, SimpleModel());
  EXPECT_TRUE(s.completion.empty());
  EXPECT_EQ(s.MaxLatency(), Duration::Zero());
}

}  // namespace
}  // namespace ppa
