// Tests for src/af/: the bounded-error recovery policy layer (DESIGN.md
// §17) — RecoveryMode flag spelling, ErrorBudget skip gating in each of
// its declared forms, DivergenceTracker accounting, the certified
// output-loss bound, JobConfig validation of mode/ft combinations, and
// the end-to-end contract: an approx job persists strictly fewer
// checkpoint bytes than the exact run and behaves identically on the
// sim and threaded backends.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "af/divergence.h"
#include "af/error_budget.h"
#include "backend/sim_backend.h"
#include "backend/threaded_backend.h"
#include "common/logging.h"
#include "engine/operators.h"
#include "fidelity/metrics.h"
#include "runtime/config.h"
#include "runtime/job_deps.h"
#include "runtime/streaming_job.h"
#include "topology/topology.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

using ::testing::HasSubstr;

// --- RecoveryMode spelling --------------------------------------------------

TEST(RecoveryModeTest, StringRoundTrip) {
  for (af::RecoveryMode mode :
       {af::RecoveryMode::kPpa, af::RecoveryMode::kApprox,
        af::RecoveryMode::kHybrid}) {
    auto parsed = af::RecoveryModeFromString(af::RecoveryModeToString(mode));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, mode);
  }
}

TEST(RecoveryModeTest, RejectsUnknownNames) {
  auto bad = af::RecoveryModeFromString("exactly-once");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_THAT(std::string(bad.status().message()),
              HasSubstr("ppa|approx|hybrid"));
  EXPECT_FALSE(af::RecoveryModeFromString("").ok());
  EXPECT_FALSE(af::RecoveryModeFromString("Approx").ok());
}

// --- ErrorBudgetSpec validation ---------------------------------------------

TEST(ErrorBudgetSpecTest, DefaultsAreValid) {
  EXPECT_TRUE(af::ErrorBudgetSpec{}.Validate().ok());
}

TEST(ErrorBudgetSpecTest, RejectsDegenerateForms) {
  af::ErrorBudgetSpec spec;
  spec.task_divergence_records = 0;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = af::ErrorBudgetSpec{};
  spec.job_divergence_records = -1;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = af::ErrorBudgetSpec{};
  spec.task_divergence_rate = -0.5;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);

  spec = af::ErrorBudgetSpec{};
  spec.max_certified_loss = 1.5;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  spec.max_certified_loss = -0.1;
  EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument);
  // The boundaries themselves are legal: loss 0 forbids any divergence
  // certificate, loss 1 never binds.
  spec.max_certified_loss = 0.0;
  EXPECT_TRUE(spec.Validate().ok());
  spec.max_certified_loss = 1.0;
  EXPECT_TRUE(spec.Validate().ok());
}

// --- ErrorBudget skip gate --------------------------------------------------

TEST(ErrorBudgetTest, AbsoluteTaskFormBinds) {
  af::ErrorBudgetSpec spec;
  spec.task_divergence_records = 100;
  spec.job_divergence_records = 1'000'000;
  af::ErrorBudget budget(spec);
  af::Divergence task;
  task.records = 100;
  EXPECT_TRUE(budget.AllowSkip(task, 1.0, task)) << "at the cap is allowed";
  task.records = 101;
  EXPECT_FALSE(budget.AllowSkip(task, 1.0, task));
}

TEST(ErrorBudgetTest, RateFormBindsOnlyWhenEnabled) {
  af::ErrorBudgetSpec spec;
  spec.task_divergence_records = 1'000'000;
  spec.job_divergence_records = 1'000'000;
  spec.task_divergence_rate = 0.0;  // disabled
  af::Divergence task;
  task.records = 5000;
  EXPECT_TRUE(af::ErrorBudget(spec).AllowSkip(task, 1.0, task));
  spec.task_divergence_rate = 100.0;  // 100 rec/s over a 1 s window
  EXPECT_FALSE(af::ErrorBudget(spec).AllowSkip(task, 1.0, task));
  // The same drift over a long enough window is within rate.
  EXPECT_TRUE(af::ErrorBudget(spec).AllowSkip(task, 60.0, task));
}

TEST(ErrorBudgetTest, JobFormBindsAcrossTasks) {
  af::ErrorBudgetSpec spec;
  spec.task_divergence_records = 1'000;
  spec.job_divergence_records = 1'500;
  af::ErrorBudget budget(spec);
  af::Divergence task;
  task.records = 900;  // within the task form
  af::Divergence job = task;
  af::Divergence other;
  other.records = 700;
  job.Add(other);  // 1600 at risk job-wide
  EXPECT_FALSE(budget.AllowSkip(task, 1.0, job));
  job.records = 1'500;
  EXPECT_TRUE(budget.AllowSkip(task, 1.0, job));
}

// --- DivergenceTracker ------------------------------------------------------

TEST(DivergenceTrackerTest, AccumulatesClearsAndAnchors) {
  af::DivergenceTracker tracker;
  const TimePoint t0 = TimePoint::Zero();
  tracker.Reset(3, t0);
  EXPECT_EQ(tracker.num_tasks(), 3);
  tracker.Observe(1, /*records=*/10, /*bytes=*/640, /*weight=*/0.5);
  tracker.Observe(1, /*records=*/6, /*bytes=*/384, /*weight=*/0.5);
  EXPECT_EQ(tracker.OfTask(1).records, 16);
  EXPECT_EQ(tracker.OfTask(1).bytes, 1024);
  EXPECT_DOUBLE_EQ(tracker.OfTask(1).weighted, 8.0);
  EXPECT_EQ(tracker.OfTask(0).records, 0) << "other tasks untouched";
  EXPECT_EQ(tracker.OfTask(2).records, 0);

  const TimePoint t5 = t0 + Duration::Seconds(5);
  EXPECT_DOUBLE_EQ(tracker.ElapsedSeconds(1, t5), 5.0);
  tracker.Clear(1, t5);
  EXPECT_EQ(tracker.OfTask(1).records, 0);
  EXPECT_DOUBLE_EQ(tracker.ElapsedSeconds(1, t5 + Duration::Seconds(2)), 2.0)
      << "Clear re-anchors the rate window";
}

// --- CertifiedLossBound -----------------------------------------------------

Topology MakeAfTopology() {
  TopologyBuilder b;
  OperatorId src = b.AddOperator("src", 2);
  OperatorId mid =
      b.AddOperator("mid", 2, InputCorrelation::kIndependent, 0.5);
  OperatorId sink =
      b.AddOperator("sink", 1, InputCorrelation::kIndependent, 0.5);
  b.Connect(src, mid, PartitionScheme::kOneToOne);
  b.Connect(mid, sink, PartitionScheme::kMerge);
  b.SetSourceRate(src, 40.0);
  auto t = b.Build();
  PPA_CHECK(t.ok()) << t.status();
  return *std::move(t);
}

TEST(CertifiedLossBoundTest, MatchesFidelityComplementAndClamps) {
  Topology topo = MakeAfTopology();
  TaskSet none(topo.num_tasks());
  EXPECT_DOUBLE_EQ(af::CertifiedLossBound(topo, none), 0.0);

  TaskSet one(topo.num_tasks());
  one.Add(2);  // first mid task
  const double loss_one = af::CertifiedLossBound(topo, one);
  EXPECT_DOUBLE_EQ(loss_one, 1.0 - ComputeOutputFidelity(topo, one));
  EXPECT_GT(loss_one, 0.0);
  EXPECT_LT(loss_one, 1.0);

  TaskSet both(topo.num_tasks());
  both.Add(2);
  both.Add(3);
  EXPECT_GE(af::CertifiedLossBound(topo, both), loss_one)
      << "losing more tasks never certifies a smaller loss";

  TaskSet all(topo.num_tasks());
  for (TaskId t = 0; t < topo.num_tasks(); ++t) {
    all.Add(t);
  }
  EXPECT_DOUBLE_EQ(af::CertifiedLossBound(topo, all), 1.0);
}

// --- JobConfig validation of mode/ft pairings -------------------------------

TEST(JobConfigAfTest, ApproxRequiresCheckpointBearingFt) {
  JobConfig cfg = JobConfig::CheckpointDefaults();
  cfg.recovery_mode = af::RecoveryMode::kApprox;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.ft_mode = FtMode::kPpa;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.ft_mode = FtMode::kSourceReplay;
  auto status = cfg.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_THAT(std::string(status.message()), HasSubstr("checkpoint-bearing"));
  cfg.ft_mode = FtMode::kActiveReplication;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(JobConfigAfTest, HybridRequiresPpa) {
  JobConfig cfg = JobConfig::PpaDefaults();
  cfg.recovery_mode = af::RecoveryMode::kHybrid;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.ft_mode = FtMode::kCheckpoint;
  auto status = cfg.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_THAT(std::string(status.message()), HasSubstr("ft_mode=ppa"));
}

TEST(JobConfigAfTest, BudgetValidatedOnlyWhenModeIsNotExact) {
  JobConfig cfg = JobConfig::CheckpointDefaults();
  cfg.error_budget.max_certified_loss = 2.0;  // invalid spec ...
  EXPECT_TRUE(cfg.Validate().ok()) << "... is inert under exact recovery";
  cfg.recovery_mode = af::RecoveryMode::kApprox;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
}

// --- End to end: approx vs exact on a real job ------------------------------

struct AfDrillRun {
  int64_t checkpoint_bytes = 0;
  int64_t checkpoints_skipped = 0;
  std::vector<SinkRecord> records;
};

JobConfig MakeAfJobConfig(af::RecoveryMode mode) {
  JobConfig cfg;
  cfg.ft_mode = FtMode::kCheckpoint;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(3);
  cfg.num_worker_nodes = 5;
  cfg.num_standby_nodes = 3;
  cfg.stagger_checkpoints = false;
  cfg.recovery_mode = mode;
  // Loose budget: every gated checkpoint within a 3 s interval may skip.
  cfg.error_budget.task_divergence_records = 1'000'000;
  cfg.error_budget.job_divergence_records = 10'000'000;
  cfg.error_budget.max_certified_loss = 1.0;
  return cfg;
}

AfDrillRun RunAfDrill(backend::ExecutionBackend* be, af::RecoveryMode mode) {
  Topology topo = MakeAfTopology();
  StreamingJob job(topo, MakeAfJobConfig(mode), JobRuntimeDeps(be));
  PPA_CHECK_OK(job.BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job.BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  PPA_CHECK_OK(job.Start());
  be->RunUntil(TimePoint::Zero() + Duration::Seconds(45));
  AfDrillRun result;
  result.checkpoint_bytes = job.CheckpointBytesWritten();
  result.checkpoints_skipped = job.CheckpointsSkipped();
  result.records = job.sink_records();
  return result;
}

TEST(AfEndToEndTest, ApproxPersistsStrictlyFewerBytesThanExact) {
  backend::SimBackend exact_be;
  AfDrillRun exact = RunAfDrill(&exact_be, af::RecoveryMode::kPpa);
  backend::SimBackend approx_be;
  AfDrillRun approx = RunAfDrill(&approx_be, af::RecoveryMode::kApprox);

  EXPECT_GT(exact.checkpoint_bytes, 0);
  EXPECT_EQ(exact.checkpoints_skipped, 0)
      << "exact recovery never thins the chain";
  EXPECT_GT(approx.checkpoints_skipped, 0);
  EXPECT_LT(approx.checkpoint_bytes, exact.checkpoint_bytes);

  // Without failures the sink stream is identical: thinning only changes
  // what would be forfeited on recovery, not live output.
  ASSERT_EQ(approx.records.size(), exact.records.size());
  for (size_t i = 0; i < approx.records.size(); ++i) {
    EXPECT_EQ(approx.records[i].tuple, exact.records[i].tuple);
  }
}

TEST(AfEndToEndTest, ApproxRunIsIdenticalOnSimAndThreads) {
  backend::SimBackend sim;
  AfDrillRun golden = RunAfDrill(&sim, af::RecoveryMode::kApprox);
  backend::ThreadedBackend threads;
  AfDrillRun real = RunAfDrill(&threads, af::RecoveryMode::kApprox);

  EXPECT_GT(golden.records.size(), 0u);
  EXPECT_EQ(real.checkpoint_bytes, golden.checkpoint_bytes);
  EXPECT_EQ(real.checkpoints_skipped, golden.checkpoints_skipped);
  ASSERT_EQ(real.records.size(), golden.records.size());
  for (size_t i = 0; i < real.records.size(); ++i) {
    EXPECT_EQ(real.records[i].tuple, golden.records[i].tuple);
  }
}

TEST(AfEndToEndTest, DeterministicAcrossRepeatedSimRuns) {
  backend::SimBackend a, b;
  AfDrillRun first = RunAfDrill(&a, af::RecoveryMode::kApprox);
  AfDrillRun second = RunAfDrill(&b, af::RecoveryMode::kApprox);
  EXPECT_EQ(first.checkpoint_bytes, second.checkpoint_bytes);
  EXPECT_EQ(first.checkpoints_skipped, second.checkpoints_skipped);
  ASSERT_EQ(first.records.size(), second.records.size());
  for (size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(first.records[i].tuple, second.records[i].tuple);
  }
}

}  // namespace
}  // namespace ppa
