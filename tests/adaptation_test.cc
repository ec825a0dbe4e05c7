#include <memory>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "engine/operators.h"
#include "runtime/streaming_job.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

/// src(2) --merge--> mid(1) --one-to-one--> sink(1).
Topology MakeAdaptTopology() {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid = b.AddOperator("mid", 1, InputCorrelation::kIndependent,
                                 0.5);
  OperatorId sink = b.AddOperator("sink", 1, InputCorrelation::kIndependent,
                                  0.5);
  b.Connect(src, mid, PartitionScheme::kMerge);
  b.Connect(mid, sink, PartitionScheme::kOneToOne);
  b.SetSourceRate(src, 100.0);
  auto t = b.Build();
  PPA_CHECK(t.ok());
  return *std::move(t);
}

JobConfig AdaptConfig() {
  JobConfig cfg;
  cfg.ft_mode = FtMode::kPpa;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(4);
  cfg.replica_sync_interval = Duration::Seconds(2);
  cfg.num_worker_nodes = 4;
  cfg.num_standby_nodes = 4;
  cfg.stagger_checkpoints = false;
  return cfg;
}

/// Source whose task 0 emits `hot` tuples per batch and every other task
/// `cold`.
class SkewedSource : public SourceFunction {
 public:
  SkewedSource(int64_t hot, int64_t cold) : hot_(hot), cold_(cold) {}

  std::vector<Tuple> NextBatch(int64_t /*batch*/, int task) override {
    const int64_t count = task == 0 ? hot_ : cold_;
    std::vector<Tuple> out;
    for (int64_t i = 0; i < count; ++i) {
      Tuple t;
      t.key = "k" + std::to_string(i % 17);
      t.value = i;
      out.push_back(std::move(t));
    }
    return out;
  }

 private:
  int64_t hot_;
  int64_t cold_;
};

std::unique_ptr<StreamingJob> MakeJob(backend::ExecutionBackend* loop,
                                      const JobConfig& config = AdaptConfig()) {
  auto job = std::make_unique<StreamingJob>(MakeAdaptTopology(), config,
                                            JobRuntimeDeps(loop));
  PPA_CHECK_OK(job->BindSource(0, [] {
    return std::make_unique<SkewedSource>(80, 20);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job->BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(4, 0.5);
    }));
  }
  return job;
}

TEST(AdaptationTest, ApplyBeforeStartIsRejected) {
  backend::SimBackend loop;
  auto job = MakeJob(&loop);
  EXPECT_EQ(job->ApplyActiveReplicaSet(TaskSet(4)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdaptationTest, RequiresPpaMode) {
  backend::SimBackend loop;
  JobConfig cfg = AdaptConfig();
  cfg.ft_mode = FtMode::kCheckpoint;
  auto job = MakeJob(&loop, cfg);
  PPA_CHECK_OK(job->Start());
  TaskSet plan(4);
  plan.Add(2);
  EXPECT_EQ(job->ApplyActiveReplicaSet(plan).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(job->replica(2), nullptr);
}

TEST(AdaptationTest, MidRunActivationCatchesUpAndEnablesTakeover) {
  backend::SimBackend loop;
  auto job = MakeJob(&loop);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
  EXPECT_EQ(job->replica(2), nullptr);

  // Activate a replica for mid (task 2) mid-run.
  TaskSet plan(4);
  plan.Add(2);
  PPA_CHECK_OK(job->ApplyActiveReplicaSet(plan));
  TaskRuntime* rep = job->replica(2);
  ASSERT_NE(rep, nullptr);
  // The replica caught up to the primary immediately (checkpoint +
  // buffered-output replay).
  EXPECT_EQ(rep->next_batch(), job->primary(2)->next_batch());
  EXPECT_GE(job->cluster().NodeOfReplica(2),
            job->cluster().num_workers());

  // Keep running: replica stays in lock-step.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(15.5));
  EXPECT_EQ(job->replica(2)->next_batch(), job->primary(2)->next_batch());

  // A failure of mid's node is now recovered actively.
  const int node = job->cluster().NodeOfPrimary(2);
  PPA_CHECK_OK(job->InjectNodeFailure(node));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(25));
  ASSERT_EQ(job->recovery_reports().size(), 1u);
  bool mid_active = false;
  for (const TaskRecoverySpec& spec : job->recovery_reports()[0].specs) {
    if (spec.task == 2) {
      mid_active = spec.kind == RecoveryKind::kActiveReplica;
    }
  }
  EXPECT_TRUE(mid_active);
}

TEST(AdaptationTest, ActivationPreservesOutputCorrectness) {
  // A failure recovered through a *dynamically* activated replica must
  // still produce output identical to a failure-free run.
  backend::SimBackend clean_loop;
  auto clean = MakeJob(&clean_loop);
  PPA_CHECK_OK(clean->Start());
  clean_loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));

  backend::SimBackend loop;
  auto job = MakeJob(&loop);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
  TaskSet plan(4);
  plan.Add(2);
  PPA_CHECK_OK(job->ApplyActiveReplicaSet(plan));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(14.5));
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));

  ASSERT_EQ(job->sink_records().size(), clean->sink_records().size());
  for (size_t i = 0; i < job->sink_records().size(); ++i) {
    EXPECT_EQ(job->sink_records()[i].tuple, clean->sink_records()[i].tuple);
  }
}

TEST(AdaptationTest, ReplicasAddedAfterEmptyStartAreTrimmed) {
  // A job that starts without replicas schedules no replica sync; the
  // first ApplyActiveReplicaSet that brings one in must start it, or the
  // replica's output buffer grows by one batch per tick forever.
  backend::SimBackend loop;
  auto job = MakeJob(&loop);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(5.5));
  TaskSet plan(4);
  plan.Add(2);
  PPA_CHECK_OK(job->ApplyActiveReplicaSet(plan));
  // A second apply of the same plan schedules no second sync.
  const size_t pending = loop.pending();
  PPA_CHECK_OK(job->ApplyActiveReplicaSet(plan));
  EXPECT_EQ(loop.pending(), pending);
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(200));
  ASSERT_NE(job->replica(2), nullptr);
  EXPECT_LE(job->replica(2)->output_buffer().size(), 3u);
}

TEST(AdaptationTest, DeactivationReleasesReplica) {
  backend::SimBackend loop;
  auto job = MakeJob(&loop);
  TaskSet initial(4);
  initial.Add(2);
  initial.Add(3);
  PPA_CHECK_OK(job->SetActiveReplicaSet(initial));
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  ASSERT_NE(job->replica(2), nullptr);
  ASSERT_NE(job->replica(3), nullptr);

  TaskSet reduced(4);
  reduced.Add(3);
  PPA_CHECK_OK(job->ApplyActiveReplicaSet(reduced));
  EXPECT_EQ(job->replica(2), nullptr);
  EXPECT_NE(job->replica(3), nullptr);
  EXPECT_EQ(job->cluster().NodeOfReplica(2), -1);

  // A later failure of task 2 is recovered passively.
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));
  ASSERT_EQ(job->recovery_reports().size(), 1u);
  for (const TaskRecoverySpec& spec : job->recovery_reports()[0].specs) {
    if (spec.task == 2) {
      EXPECT_EQ(spec.kind, RecoveryKind::kCheckpoint);
    }
  }
}

TEST(AdaptationTest, RecoveringTaskKeepsItsReplica) {
  backend::SimBackend loop;
  auto job = MakeJob(&loop);
  TaskSet initial(4);
  initial.Add(2);
  PPA_CHECK_OK(job->SetActiveReplicaSet(initial));
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(8.5));
  // Fail the primary; before detection, try to deactivate its replica.
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  PPA_CHECK_OK(job->ApplyActiveReplicaSet(TaskSet(4)));
  EXPECT_NE(job->replica(2), nullptr)
      << "the replica is the recovery path and must not be deactivated";
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(30));
  EXPECT_TRUE(job->AllRecovered());
}

}  // namespace
}  // namespace ppa
