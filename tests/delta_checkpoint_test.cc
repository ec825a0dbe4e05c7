#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "backend/sim_backend.h"
#include "engine/operators.h"
#include "engine/task_runtime.h"
#include "af/error_budget.h"
#include "ft/checkpoint.h"
#include "obs/metrics.h"
#include "runtime/streaming_job.h"
#include "tests/test_topologies.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;

std::vector<Tuple> Batch(int64_t batch, int count) {
  std::vector<Tuple> out;
  for (int i = 0; i < count; ++i) {
    Tuple t;
    t.key = "k" + std::to_string(i);
    t.value = batch * 10 + i;
    t.batch = batch;
    t.seq = (static_cast<uint64_t>(batch) << 24) + static_cast<uint64_t>(i);
    t.producer = 0;
    out.push_back(std::move(t));
  }
  return out;
}

TEST(DeltaSnapshotTest, OperatorBasePlusDeltasEqualsFull) {
  SlidingWindowAggregateOperator primary(4, 1.0);
  SlidingWindowAggregateOperator restored(4, 1.0);

  // Base snapshot after 3 batches.
  for (int64_t b = 0; b < 3; ++b) {
    BatchContext ctx(b, 0, 1);
    primary.ProcessBatch(&ctx, Batch(b, 3));
  }
  auto base = primary.SnapshotState();
  ASSERT_TRUE(base.ok());
  // Two deltas: batches 3-4 and 5-7 (window slides; early slices evict).
  std::vector<std::string> deltas;
  for (const auto& range : {std::pair<int64_t, int64_t>{3, 5},
                            std::pair<int64_t, int64_t>{5, 8}}) {
    for (int64_t b = range.first; b < range.second; ++b) {
      BatchContext ctx(b, 0, 1);
      primary.ProcessBatch(&ctx, Batch(b, 3));
    }
    int64_t delta_tuples = 0;
    auto delta = primary.SnapshotDelta(&delta_tuples);
    ASSERT_TRUE(delta.ok());
    EXPECT_GT(delta_tuples, 0);
    // Deltas only carry the fresh slices, fewer tuples than a full
    // snapshot of the current window.
    EXPECT_LT(delta_tuples, primary.StateSizeTuples());
    deltas.push_back(*std::move(delta));
  }

  ASSERT_TRUE(restored.RestoreState(*base).ok());
  for (const std::string& delta : deltas) {
    ASSERT_TRUE(restored.ApplyDelta(delta).ok());
  }
  EXPECT_EQ(restored.StateSizeTuples(), primary.StateSizeTuples());
  // Identical continued behaviour.
  BatchContext ca(8, 0, 1), cb(8, 0, 1);
  primary.ProcessBatch(&ca, Batch(8, 2));
  restored.ProcessBatch(&cb, Batch(8, 2));
  ASSERT_EQ(ca.emitted().size(), cb.emitted().size());
  for (size_t i = 0; i < ca.emitted().size(); ++i) {
    EXPECT_EQ(ca.emitted()[i].value, cb.emitted()[i].value);
  }
}

TEST(DeltaSnapshotTest, OutOfOrderDeltaRejected) {
  SlidingWindowAggregateOperator a(4, 1.0), b(4, 1.0);
  BatchContext c0(0, 0, 1);
  a.ProcessBatch(&c0, Batch(0, 2));
  auto base = a.SnapshotState();
  ASSERT_TRUE(base.ok());
  BatchContext c1(1, 0, 1);
  a.ProcessBatch(&c1, Batch(1, 2));
  int64_t n = 0;
  auto delta = a.SnapshotDelta(&n);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(b.RestoreState(*base).ok());
  ASSERT_TRUE(b.ApplyDelta(*delta).ok());
  // Applying the same delta twice is out of order.
  EXPECT_EQ(b.ApplyDelta(*delta).code(), StatusCode::kInvalidArgument);
}

TEST(DeltaSnapshotTest, UnsupportedOperatorsSayNo) {
  PassThroughOperator op;
  EXPECT_FALSE(op.SupportsDeltaSnapshots());
  int64_t n = 0;
  EXPECT_EQ(op.SnapshotDelta(&n).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(op.ApplyDelta("").code(), StatusCode::kUnimplemented);
}

TEST(DeltaSnapshotTest, TaskRuntimeChainRoundTrip) {
  Topology topo = MakeChain(1, 1, 1, PartitionScheme::kOneToOne,
                            PartitionScheme::kOneToOne);
  const TaskId mid = topo.op(1).tasks[0];
  TaskRuntime a(&topo, mid,
                std::make_unique<SlidingWindowAggregateOperator>(4, 1.0),
                nullptr);
  TaskRuntime b(&topo, mid,
                std::make_unique<SlidingWindowAggregateOperator>(4, 1.0),
                nullptr);
  EXPECT_TRUE(a.SupportsDeltaSnapshots());

  for (int64_t batch = 0; batch < 3; ++batch) {
    a.RunBatch(batch, Batch(batch, 3));
  }
  auto base = a.Snapshot();
  ASSERT_TRUE(base.ok());
  std::vector<std::string> deltas;
  for (int64_t batch = 3; batch < 7; ++batch) {
    a.RunBatch(batch, Batch(batch, 3));
    if (batch % 2 == 0) {
      auto d = a.SnapshotDelta();
      ASSERT_TRUE(d.ok());
      EXPECT_GT(d->state_tuples, 0);
      deltas.push_back(std::move(d->blob));
    }
  }
  // One more unsnapshotted batch: the chain covers up to batch 6.
  ASSERT_TRUE(b.Restore(*base).ok());
  for (const std::string& d : deltas) {
    ASSERT_TRUE(b.ApplyDelta(d).ok());
  }
  EXPECT_EQ(b.next_batch(), 7);
  EXPECT_EQ(b.StateSizeTuples(), a.StateSizeTuples());
  EXPECT_EQ(b.progress_vector(), a.progress_vector());
  EXPECT_EQ(b.BufferedTuples(), a.BufferedTuples());
  // Identical continued behaviour.
  const BatchOutput& oa = a.RunBatch(7, Batch(7, 2));
  const BatchOutput& ob = b.RunBatch(7, Batch(7, 2));
  ASSERT_EQ(oa.tuples.size(), ob.tuples.size());
  for (size_t i = 0; i < oa.tuples.size(); ++i) {
    EXPECT_EQ(oa.tuples[i], ob.tuples[i]);
  }
}

TEST(DeltaSnapshotTest, DeltaSpansSkippedGap) {
  // A skipped checkpoint leaves the snapshot marker untouched, so the
  // next persisted delta spans the whole gap; restoring through it must
  // reproduce the live window exactly.
  SlidingWindowAggregateOperator a(8, 1.0), b(8, 1.0);
  for (int64_t batch = 0; batch < 3; ++batch) {
    BatchContext ctx(batch, 0, 1);
    a.ProcessBatch(&ctx, Batch(batch, 3));
  }
  auto base = a.SnapshotState();
  ASSERT_TRUE(base.ok());
  // Batches 3-4 pass without any snapshot (the skip), then 5-6 arrive
  // and the next delta must carry all four fresh slices.
  for (int64_t batch = 3; batch < 7; ++batch) {
    BatchContext ctx(batch, 0, 1);
    a.ProcessBatch(&ctx, Batch(batch, 3));
  }
  int64_t fresh = 0;
  auto delta = a.SnapshotDelta(&fresh);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(fresh, 4 * 3);
  ASSERT_TRUE(b.RestoreState(*base).ok());
  ASSERT_TRUE(b.ApplyDelta(*delta).ok());
  EXPECT_EQ(b.StateSizeTuples(), a.StateSizeTuples());
  BatchContext ca(7, 0, 1), cb(7, 0, 1);
  a.ProcessBatch(&ca, Batch(7, 2));
  b.ProcessBatch(&cb, Batch(7, 2));
  ASSERT_EQ(ca.emitted().size(), cb.emitted().size());
  for (size_t i = 0; i < ca.emitted().size(); ++i) {
    EXPECT_EQ(ca.emitted()[i].value, cb.emitted()[i].value);
  }
}

TEST(CheckpointChainTest, SkipFrontierAdvancesTrimBatch) {
  CheckpointStore store;
  // Before any blob exists, the frontier alone defines the trim point:
  // an empty-chain approximate restore starts from scratch and
  // fast-forwards to it.
  EXPECT_EQ(store.Chain(0), nullptr);
  store.NoteSkipped(0, 6);
  EXPECT_EQ(store.CoveredBatch(0), 0);
  EXPECT_EQ(store.SkippedFrontier(0), 6);
  EXPECT_EQ(store.TrimBatch(0), 6);
  // A blob persisted behind the frontier does not regress the trim
  // point...
  store.Put(TaskCheckpoint{0, 4, "base", 10});
  EXPECT_EQ(store.CoveredBatch(0), 4);
  EXPECT_EQ(store.TrimBatch(0), 6);
  // ...and one past it takes over.
  ASSERT_TRUE(
      store.PutDelta(TaskCheckpoint{0, 9, "d", 2}).ok());
  EXPECT_EQ(store.TrimBatch(0), 9);
  // The frontier is monotone: a stale skip note cannot move it back.
  store.NoteSkipped(0, 3);
  EXPECT_EQ(store.SkippedFrontier(0), 6);
  // Other tasks are unaffected.
  EXPECT_EQ(store.SkippedFrontier(1), 0);
  EXPECT_EQ(store.TrimBatch(1), 0);
}

TEST(CheckpointChainTest, ChainDeltaHistogramExactUnderSkips) {
  // Skipped blobs must be invisible to the chain-shape metrics: the
  // chain-delta-length histogram records exactly the persisted deltas
  // replaced at each rebase, and only the skip counter sees the skips.
  obs::MetricsRegistry registry;
  CheckpointStore store;
  store.AttachMetrics(&registry);
  store.Put(TaskCheckpoint{0, 5, "base", 10});
  store.NoteSkipped(0, 8);
  ASSERT_TRUE(
      store.PutDelta(TaskCheckpoint{0, 11, "d1", 3}).ok());
  store.NoteSkipped(0, 14);
  ASSERT_TRUE(
      store.PutDelta(TaskCheckpoint{0, 17, "d2", 3}).ok());
  EXPECT_EQ(store.ChainDeltas(0), 2);
  // Rebase: the replaced chain held exactly 2 deltas, skips not counted.
  store.Put(TaskCheckpoint{0, 20, "base2", 9});
  const obs::Histogram* chain_hist =
      registry.histogram("checkpoint.chain_deltas");
  EXPECT_EQ(chain_hist->count(), 1);
  EXPECT_EQ(chain_hist->sum(), 2.0);
  EXPECT_EQ(registry.counter("checkpoint.skipped")->value(), 2);
  EXPECT_EQ(registry.counter("checkpoint.full")->value(), 2);
  EXPECT_EQ(registry.counter("checkpoint.delta")->value(), 2);
}

TEST(CheckpointChainTest, StoreSemantics) {
  CheckpointStore store;
  EXPECT_EQ(store.PutDelta(TaskCheckpoint{0, 5, "d", 10})
                .code(),
            StatusCode::kFailedPrecondition);
  store.Put(TaskCheckpoint{0, 5, "base", 100});
  ASSERT_TRUE(
      store.PutDelta(TaskCheckpoint{0, 8, "d1", 10}).ok());
  ASSERT_TRUE(
      store.PutDelta(TaskCheckpoint{0, 11, "d2", 12}).ok());
  EXPECT_EQ(store.ChainDeltas(0), 2);
  EXPECT_EQ(store.ChainStateTuples(0), 122);
  EXPECT_EQ(store.CoveredBatch(0), 11);
  EXPECT_TRUE(store.Latest(0)->is_delta);
  ASSERT_NE(store.Chain(0), nullptr);
  EXPECT_EQ(store.Chain(0)->size(), 3u);
  EXPECT_FALSE((*store.Chain(0))[0].is_delta);
  // Regressing delta rejected.
  EXPECT_EQ(store.PutDelta(TaskCheckpoint{0, 7, "bad", 1})
                .code(),
            StatusCode::kInvalidArgument);
  // A new full checkpoint resets the chain.
  store.Put(TaskCheckpoint{0, 20, "base2", 90});
  EXPECT_EQ(store.ChainDeltas(0), 0);
  EXPECT_EQ(store.CoveredBatch(0), 20);
}

class DeltaJobTest : public ::testing::Test {
 protected:
  static JobConfig Config(bool delta) {
    JobConfig cfg;
    cfg.ft_mode = FtMode::kCheckpoint;
    cfg.batch_interval = Duration::Seconds(1);
    cfg.detection_interval = Duration::Seconds(2);
    cfg.checkpoint_interval = Duration::Seconds(3);
    cfg.num_worker_nodes = 5;
    cfg.num_standby_nodes = 3;
    cfg.stagger_checkpoints = false;
    cfg.delta_checkpoints = delta;
    cfg.max_delta_chain = 4;
    return cfg;
  }

  static std::unique_ptr<StreamingJob> MakeJob(backend::ExecutionBackend* loop,
                                               bool delta) {
    return MakeJobWithConfig(loop, Config(delta));
  }

  static std::unique_ptr<StreamingJob> MakeJobWithConfig(
      backend::ExecutionBackend* loop, const JobConfig& config) {
    TopologyBuilder b;
    OperatorId src = b.AddOperator("src", 2);
    OperatorId mid = b.AddOperator("mid", 2, InputCorrelation::kIndependent,
                                   0.5);
    OperatorId sink = b.AddOperator("sink", 1,
                                    InputCorrelation::kIndependent, 0.5);
    b.Connect(src, mid, PartitionScheme::kOneToOne);
    b.Connect(mid, sink, PartitionScheme::kMerge);
    b.SetSourceRate(src, 40.0);
    auto topo = b.Build();
    PPA_CHECK(topo.ok());
    auto job = std::make_unique<StreamingJob>(*std::move(topo), config,
                                              JobRuntimeDeps(loop));
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
};

TEST_F(DeltaJobTest, ChainsFormAndRecoveryIsExact) {
  backend::SimBackend clean_loop;
  auto clean = MakeJob(&clean_loop, /*delta=*/false);
  PPA_CHECK_OK(clean->Start());
  clean_loop.RunUntil(TimePoint::Zero() + Duration::Seconds(45));

  backend::SimBackend loop;
  auto job = MakeJob(&loop, /*delta=*/true);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(14.5));
  // Several delta checkpoints have stacked by now.
  EXPECT_GT(job->checkpoint_store().ChainDeltas(2), 0);
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(45));
  EXPECT_TRUE(job->AllRecovered());

  // Recovery through the base+delta chain reproduces the failure-free run
  // exactly.
  ASSERT_EQ(job->sink_records().size(), clean->sink_records().size());
  for (size_t i = 0; i < job->sink_records().size(); ++i) {
    EXPECT_EQ(job->sink_records()[i].tuple, clean->sink_records()[i].tuple);
  }
}

TEST_F(DeltaJobTest, FullBaseTakenAfterChainLimit) {
  backend::SimBackend loop;
  auto job = MakeJob(&loop, /*delta=*/true);
  PPA_CHECK_OK(job->Start());
  // 3 s interval, chain limit 4: by t=40 the chain must have been reset by
  // a periodic full base at least once and never exceed the limit.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(40));
  EXPECT_LE(job->checkpoint_store().ChainDeltas(2), 4);
}

TEST_F(DeltaJobTest, PromotedReplicaRebasesChain) {
  // Regression: a promoted replica's snapshot marker dates from its
  // activation, so taking a delta on top of the dead primary's chain
  // could duplicate already-persisted window slices and corrupt the
  // chain for the next restore. The job must rebase with a full
  // snapshot at the promoted task's next checkpoint instead.
  backend::SimBackend loop;
  JobConfig cfg = Config(/*delta=*/true);
  cfg.ft_mode = FtMode::kPpa;
  auto job = MakeJobWithConfig(&loop, cfg);
  TaskSet replicated(5);
  replicated.Add(2);
  PPA_CHECK_OK(job->SetActiveReplicaSet(replicated));
  PPA_CHECK_OK(job->Start());
  // Let delta checkpoints stack, then kill the primary: the replica
  // takes over and keeps checkpointing onto the existing chain.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(14.5));
  EXPECT_GT(job->checkpoint_store().ChainDeltas(2), 0);
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(25.5));
  EXPECT_TRUE(job->AllRecovered());
  // Now kill the promoted primary: restoring through the post-promotion
  // chain must succeed (pre-fix this aborted with "delta slices out of
  // order") and reproduce the failure-free run exactly.
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  EXPECT_TRUE(job->AllRecovered());

  backend::SimBackend clean_loop;
  auto clean = MakeJobWithConfig(&clean_loop, cfg);
  PPA_CHECK_OK(clean->SetActiveReplicaSet(replicated));
  PPA_CHECK_OK(clean->Start());
  clean_loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
  // The sink ran ahead in tentative mode while task 2 was down (its
  // batches there are degraded by design); reconciliation from the
  // restored state must reproduce the failure-free run exactly, which
  // it can only do if the post-promotion chain restored exact state.
  auto report = job->ReconcileTentativeOutputs();
  ASSERT_TRUE(report.ok()) << report.status();
  auto key_of = [](const Tuple& t) {
    return std::to_string(t.batch) + "|" + t.key + "|" +
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
    corrected.insert(key_of(r.tuple));
  }
  EXPECT_EQ(corrected, expected);
  // Away from the reconciled span (and past the sink's window tail,
  // which still carries the degraded slices) the live records agree.
  const int64_t kWindowBatches = 5;  // matches the fixture's mid operators
  const int64_t tail = report->to_batch + kWindowBatches;
  std::multiset<std::string> live_job, live_clean;
  for (const SinkRecord& r : job->sink_records()) {
    if (!r.correction &&
        (r.tuple.batch < report->from_batch || r.tuple.batch > tail)) {
      live_job.insert(key_of(r.tuple));
    }
  }
  for (const SinkRecord& r : clean->sink_records()) {
    if (r.tuple.batch < report->from_batch || r.tuple.batch > tail) {
      live_clean.insert(key_of(r.tuple));
    }
  }
  EXPECT_EQ(live_job, live_clean);
}

TEST_F(DeltaJobTest, ThinnedChainRestoreFastForwards) {
  // Approximate mode with a generous budget: checkpoints get skipped,
  // so the chain covers less than the trim frontier. A failure then
  // restores the thinned chain and fast-forwards over the certified
  // gap instead of replaying it.
  backend::SimBackend loop;
  JobConfig cfg = Config(/*delta=*/true);
  cfg.recovery_mode = af::RecoveryMode::kApprox;
  // ~60 records drift per 3 s checkpoint interval on the mid tasks: the
  // budget of 100 makes persists and skips alternate, so the chain is
  // genuinely thinned (persisted deltas spanning skipped gaps).
  cfg.error_budget.task_divergence_records = 100;
  cfg.error_budget.job_divergence_records = 10'000;
  cfg.error_budget.max_certified_loss = 1.0;
  auto job = MakeJobWithConfig(&loop, cfg);
  PPA_CHECK_OK(job->Start());
  // Fail right after a skipped tick so the frontier runs ahead of the
  // persisted coverage.
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(16.5));
  EXPECT_GT(job->CheckpointsSkipped(), 0);
  ASSERT_NE(job->checkpoint_store().Chain(2), nullptr);
  EXPECT_GT(job->checkpoint_store().TrimBatch(2),
            job->checkpoint_store().CoveredBatch(2));
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(45));
  EXPECT_TRUE(job->AllRecovered());
  ASSERT_FALSE(job->approx_certificates().empty());
  const af::ApproxCertificate& cert = job->approx_certificates().front();
  EXPECT_EQ(cert.task, 2);
  EXPECT_GT(cert.resumed_batch, cert.restored_batch);
  EXPECT_GT(cert.forfeited.records, 0);
  EXPECT_GE(cert.certified_loss, 0.0);
  EXPECT_LE(cert.certified_loss, cfg.error_budget.max_certified_loss);
  // The sink keeps producing after the approximate resume.
  EXPECT_GT(job->sink_records().size(), 0u);
}

TEST_F(DeltaJobTest, EmptyChainApproxRestoreStartsFresh) {
  // With an effectively unlimited budget every checkpoint is skipped:
  // the failed task has no chain at all and must restore from scratch,
  // fast-forwarding to the skip frontier.
  backend::SimBackend loop;
  JobConfig cfg = Config(/*delta=*/true);
  cfg.recovery_mode = af::RecoveryMode::kApprox;
  cfg.error_budget.task_divergence_records = 100'000'000;
  cfg.error_budget.job_divergence_records = 1'000'000'000;
  cfg.error_budget.max_certified_loss = 1.0;
  auto job = MakeJobWithConfig(&loop, cfg);
  PPA_CHECK_OK(job->Start());
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(20.5));
  EXPECT_GT(job->CheckpointsSkipped(), 0);
  EXPECT_EQ(job->checkpoint_store().Chain(2), nullptr);
  EXPECT_EQ(job->CheckpointBytesWritten(), 0);
  PPA_CHECK_OK(job->InjectNodeFailure(job->cluster().NodeOfPrimary(2)));
  loop.RunUntil(TimePoint::Zero() + Duration::Seconds(45));
  EXPECT_TRUE(job->AllRecovered());
  ASSERT_FALSE(job->approx_certificates().empty());
  const af::ApproxCertificate& cert = job->approx_certificates().front();
  // Reset(0) leaves the runtime at batch 0; everything up to the skip
  // frontier is forfeited.
  EXPECT_EQ(cert.restored_batch, 0);
  EXPECT_GT(cert.resumed_batch, 0);
  EXPECT_GT(cert.forfeited.records, 0);
}

TEST_F(DeltaJobTest, DeltaCheckpointsAreCheaper) {
  auto run = [&](bool delta) {
    backend::SimBackend loop;
    auto job = MakeJob(&loop, delta);
    PPA_CHECK_OK(job->Start());
    loop.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
    double cost = 0;
    for (TaskId t : {2, 3, 4}) {
      cost += job->CheckpointCostUs(t);
    }
    return cost;
  };
  const double full = run(false);
  const double delta = run(true);
  EXPECT_GT(full, 0);
  EXPECT_LT(delta, full)
      << "delta checkpoints must serialize less state per interval";
}

}  // namespace
}  // namespace ppa
