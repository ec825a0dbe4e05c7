#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "engine/operators.h"
#include "runtime/streaming_job.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

Topology MakeReconTopology() {
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

std::unique_ptr<StreamingJob> MakeReconJob(backend::ExecutionBackend* loop) {
  JobConfig cfg;
  cfg.ft_mode = FtMode::kPpa;
  cfg.batch_interval = Duration::Seconds(1);
  cfg.detection_interval = Duration::Seconds(2);
  cfg.checkpoint_interval = Duration::Seconds(4);
  cfg.num_worker_nodes = 5;
  cfg.num_standby_nodes = 2;
  cfg.stagger_checkpoints = false;
  cfg.window_batches = 5;
  auto job = std::make_unique<StreamingJob>(MakeReconTopology(), cfg, JobRuntimeDeps(loop));
  PPA_CHECK_OK(job->BindSource(0, [] {
    return std::make_unique<SyntheticSource>(20, 64, 7);
  }));
  for (OperatorId op : {1, 2}) {
    PPA_CHECK_OK(job->BindOperator(op, [] {
      return std::make_unique<SlidingWindowAggregateOperator>(5, 0.5);
    }));
  }
  return job;
}

TEST(ReconciliationTest, RequiresRecoveryAndDegradation) {
  backend::SimBackend loop;
  auto job = MakeReconJob(&loop);
  EXPECT_EQ(job->ReconcileTentativeOutputs().status().code(),
            StatusCode::kFailedPrecondition);  // Not started.
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  // No failure: nothing to reconcile.
  EXPECT_EQ(job->ReconcileTentativeOutputs().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReconciliationTest, CorrectsTheTentativeWindowExactly) {
  // Failure-free oracle.
  backend::SimBackend clean_loop;
  auto clean = MakeReconJob(&clean_loop);
  PPA_CHECK_OK(clean->Start());
  clean_loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));

  backend::SimBackend loop;
  auto job = MakeReconJob(&loop);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
  // Fail mid[0]'s node: passive recovery, tentative outputs meanwhile.
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));
  ASSERT_TRUE(job->AllRecovered());
  // The tentative phase produced degraded sink output.
  bool any_tentative = false;
  for (const SinkRecord& r : job->sink_records()) {
    any_tentative |= r.tentative;
  }
  ASSERT_TRUE(any_tentative);

  auto report = job->ReconcileTentativeOutputs();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->reprocessed_tuples, 0);
  EXPECT_GT(report->missed_outputs, 0)
      << "tentative output lost the failed task's contribution";
  EXPECT_LE(report->from_batch, report->to_batch);

  // The corrected records are exactly the failure-free run's records for
  // the degraded batches.
  auto key_of = [](const Tuple& t) {
    return std::to_string(t.batch) + "|" + t.key.str() + "|" +
           std::to_string(t.value);
  };
  std::multiset<std::string> expected;
  for (const SinkRecord& r : clean->sink_records()) {
    if (r.tuple.batch >= report->from_batch &&
        r.tuple.batch <= report->to_batch) {
      expected.insert(key_of(r.tuple));
    }
  }
  std::multiset<std::string> corrected;
  for (const SinkRecord& r : report->corrected) {
    EXPECT_TRUE(r.correction);
    corrected.insert(key_of(r.tuple));
  }
  EXPECT_EQ(corrected, expected);

  // Corrections were appended to the job's record stream, flagged.
  int64_t corrections_in_stream = 0;
  for (const SinkRecord& r : job->sink_records()) {
    corrections_in_stream += r.correction;
  }
  EXPECT_EQ(corrections_in_stream,
            static_cast<int64_t>(report->corrected.size()));

  // Reconciling twice is an error (window already corrected).
  EXPECT_EQ(job->ReconcileTentativeOutputs().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ReconciliationTest, ReportsCostProportionalToWindow) {
  backend::SimBackend loop;
  auto job = MakeReconJob(&loop);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(10.5));
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));
  ASSERT_TRUE(job->AllRecovered());
  auto report = job->ReconcileTentativeOutputs();
  ASSERT_TRUE(report.ok());
  // The shadow run reprocesses (warm-up + degraded span) batches through
  // all three stages; the warm-up is clipped at batch 0, so the span is at
  // most to_batch + 1 batches of ~40 source tuples each (plus the smaller
  // downstream stages: mid ~40, sink ~20 per batch).
  const int64_t degraded_span = report->to_batch - report->from_batch + 1;
  EXPECT_GT(report->reprocessed_tuples, degraded_span * 40);
  EXPECT_LE(report->reprocessed_tuples, (report->to_batch + 1) * 100);
}

}  // namespace
}  // namespace ppa
