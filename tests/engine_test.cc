#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "engine/operator.h"
#include "engine/operators.h"
#include "engine/router.h"
#include "engine/serde.h"
#include "engine/task_runtime.h"
#include "tests/test_topologies.h"
#include "topology/topology.h"

namespace ppa {
namespace {

using ::ppa::testing::MakeChain;

std::vector<Tuple> MakeTuples(std::initializer_list<std::pair<const char*, int64_t>> kvs,
                              TaskId producer = 0, int64_t batch = 0) {
  std::vector<Tuple> out;
  uint64_t i = 0;
  for (const auto& [k, v] : kvs) {
    Tuple t;
    t.key = k;
    t.value = v;
    t.producer = producer;
    t.batch = batch;
    t.seq = (static_cast<uint64_t>(batch) << 24) + i++;
    out.push_back(std::move(t));
  }
  return out;
}

TEST(SerdeTest, RoundTrip) {
  BinaryWriter w;
  w.PutU64(42);
  w.PutI64(-7);
  w.PutDouble(3.25);
  w.PutString("hello");
  w.PutString("");
  BinaryReader r(w.data());
  EXPECT_EQ(*r.GetU64(), 42u);
  EXPECT_EQ(*r.GetI64(), -7);
  EXPECT_DOUBLE_EQ(*r.GetDouble(), 3.25);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(*r.GetString(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, TruncationDetected) {
  BinaryWriter w;
  w.PutU64(1);
  std::string data = w.data();
  data.pop_back();
  BinaryReader r(data);
  EXPECT_EQ(r.GetU64().status().code(), StatusCode::kOutOfRange);
}

TEST(SerdeTest, TruncatedStringDetected) {
  BinaryWriter w;
  w.PutString("hello world");
  std::string data = w.data();
  data.resize(data.size() - 3);
  BinaryReader r(data);
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kOutOfRange);
}

TEST(OperatorsTest, PassThroughForwardsEverything) {
  PassThroughOperator op;
  BatchContext ctx(0, 0, 1);
  op.ProcessBatch(&ctx, MakeTuples({{"a", 1}, {"b", 2}}));
  ASSERT_EQ(ctx.emitted().size(), 2u);
  EXPECT_EQ(ctx.emitted()[0].key, "a");
  EXPECT_EQ(ctx.emitted()[1].value, 2);
  EXPECT_EQ(op.StateSizeTuples(), 0);
}

TEST(OperatorsTest, SelectivityIsDeterministicAndProportional) {
  SelectivityOperator op(0.5);
  std::vector<Tuple> inputs;
  for (int i = 0; i < 10000; ++i) {
    Tuple t;
    t.key = "key" + std::to_string(i);
    t.value = i;
    inputs.push_back(std::move(t));
  }
  BatchContext a(0, 0, 1), b(0, 0, 1);
  op.ProcessBatch(&a, inputs);
  op.ProcessBatch(&b, inputs);
  EXPECT_EQ(a.emitted().size(), b.emitted().size());
  EXPECT_NEAR(static_cast<double>(a.emitted().size()), 5000.0, 300.0);
}

TEST(OperatorsTest, SlidingWindowEvictsOldBatches) {
  SlidingWindowAggregateOperator op(/*window_batches=*/3,
                                    /*selectivity=*/1.0);
  for (int64_t b = 0; b < 10; ++b) {
    BatchContext ctx(b, 0, 1);
    op.ProcessBatch(&ctx, MakeTuples({{"k", 1}, {"k", 1}}, 0, b));
    // Steady state: window holds at most 3 batches x 2 tuples.
    EXPECT_LE(op.StateSizeTuples(), 6);
    if (b >= 2) {
      EXPECT_EQ(op.StateSizeTuples(), 6);
    }
  }
}

TEST(OperatorsTest, SlidingWindowSnapshotRestoreIsExact) {
  SlidingWindowAggregateOperator a(5, 0.5), b(5, 0.5);
  for (int64_t batch = 0; batch < 7; ++batch) {
    BatchContext ctx(batch, 0, 1);
    a.ProcessBatch(&ctx, MakeTuples({{"x", batch}, {"y", batch * 2}}, 0, batch));
  }
  auto snapshot = a.SnapshotState();
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(b.RestoreState(*snapshot).ok());
  EXPECT_EQ(a.StateSizeTuples(), b.StateSizeTuples());
  // Identical future behaviour.
  BatchContext ca(7, 0, 1), cb(7, 0, 1);
  auto inputs = MakeTuples({{"z", 9}}, 0, 7);
  a.ProcessBatch(&ca, inputs);
  b.ProcessBatch(&cb, inputs);
  ASSERT_EQ(ca.emitted().size(), cb.emitted().size());
  for (size_t i = 0; i < ca.emitted().size(); ++i) {
    EXPECT_EQ(ca.emitted()[i].key, cb.emitted()[i].key);
    EXPECT_EQ(ca.emitted()[i].value, cb.emitted()[i].value);
  }
}

TEST(OperatorsTest, WindowedKeyCountCountsAndEvicts) {
  WindowedKeyCountOperator op(2);
  BatchContext c0(0, 0, 1);
  op.ProcessBatch(&c0, MakeTuples({{"a", 1}, {"a", 1}, {"b", 1}}, 0, 0));
  // Counts after batch 0: a=2, b=1.
  std::map<std::string, int64_t> emitted;
  for (const Tuple& t : c0.emitted()) {
    emitted[t.key.str()] = t.value;
  }
  EXPECT_EQ(emitted["a"], 2);
  EXPECT_EQ(emitted["b"], 1);
  BatchContext c1(1, 0, 1);
  op.ProcessBatch(&c1, MakeTuples({{"a", 1}}, 0, 1));
  emitted.clear();
  for (const Tuple& t : c1.emitted()) {
    emitted[t.key.str()] = t.value;
  }
  EXPECT_EQ(emitted["a"], 3);  // Window of 2 batches: 2 + 1.
  // Batch 2 evicts batch 0's contribution.
  BatchContext c2(2, 0, 1);
  op.ProcessBatch(&c2, MakeTuples({{"a", 1}}, 0, 2));
  emitted.clear();
  for (const Tuple& t : c2.emitted()) {
    emitted[t.key.str()] = t.value;
  }
  EXPECT_EQ(emitted["a"], 2);  // Batches 1 and 2 only.
}

TEST(OperatorsTest, KeyCountSnapshotRoundTrip) {
  WindowedKeyCountOperator a(3), b(3);
  for (int64_t batch = 0; batch < 5; ++batch) {
    BatchContext ctx(batch, 0, 1);
    a.ProcessBatch(&ctx, MakeTuples({{"k1", 1}, {"k2", 1}}, 0, batch));
  }
  auto snap = a.SnapshotState();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(b.RestoreState(*snap).ok());
  BatchContext ca(5, 0, 1), cb(5, 0, 1);
  a.ProcessBatch(&ca, {});
  b.ProcessBatch(&cb, {});
  ASSERT_EQ(ca.emitted().size(), cb.emitted().size());
}

TEST(RouterTest, OneToOneRoutesToAlignedTask) {
  Topology t = MakeChain(3, 3, 3, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  Router router(&t);
  for (TaskId src : t.op(0).tasks) {
    const auto& consumers = router.Consumers(src, 1);
    ASSERT_EQ(consumers.size(), 1u);
    EXPECT_EQ(t.task(consumers[0]).index_in_op, t.task(src).index_in_op);
  }
}

TEST(RouterTest, FullRoutesByKeyConsistently) {
  Topology t = MakeChain(2, 4, 1, PartitionScheme::kFull,
                         PartitionScheme::kMerge);
  Router router(&t);
  Tuple tuple;
  tuple.key = "some-key";
  const TaskId from0 = t.op(0).tasks[0];
  const TaskId from1 = t.op(0).tasks[1];
  // The same key from different producers lands on the same consumer
  // (key partitioning is a property of the stream, not the producer).
  EXPECT_EQ(t.task(router.Route(from0, 1, tuple)).index_in_op,
            t.task(router.Route(from1, 1, tuple)).index_in_op);
  // Different keys spread over consumers.
  std::set<TaskId> seen;
  for (int i = 0; i < 100; ++i) {
    tuple.key = "k" + std::to_string(i);
    seen.insert(router.Route(from0, 1, tuple));
  }
  EXPECT_GT(seen.size(), 1u);
}

TEST(RouterTest, NoEdgeYieldsInvalid) {
  Topology t = MakeChain(2, 2, 2, PartitionScheme::kOneToOne,
                         PartitionScheme::kOneToOne);
  Router router(&t);
  Tuple tuple;
  tuple.key = "x";
  EXPECT_EQ(router.Route(t.op(0).tasks[0], 2, tuple), kInvalidTaskId);
  EXPECT_TRUE(router.Consumers(t.op(0).tasks[0], 2).empty());
}

std::vector<Tuple> RouteTupleByTuple(const Router& router, TaskId producer,
                                     OperatorId to_op,
                                     const BatchOutput& batch,
                                     TaskId consumer) {
  std::vector<Tuple> out;
  for (const Tuple& t : batch.tuples) {
    if (router.Route(producer, to_op, t) == consumer) {
      out.push_back(t);
    }
  }
  return out;
}

TEST(RouterTest, RouteBatchToMatchesPerTupleRoute) {
  // src(3) --one-to-one--> mid(3) --merge--> sink(1); the second round
  // uses a full mid -> sink(2) edge for the per-tuple hash path.
  for (PartitionScheme s12 :
       {PartitionScheme::kMerge, PartitionScheme::kFull}) {
    Topology t = MakeChain(3, 3, s12 == PartitionScheme::kMerge ? 1 : 2,
                           PartitionScheme::kOneToOne, s12);
    Router router(&t);
    BatchOutput batch;
    batch.batch = 3;
    for (int i = 0; i < 50; ++i) {
      Tuple tuple;
      tuple.key = "k" + std::to_string(i);
      tuple.value = i;
      tuple.batch = 3;
      tuple.seq = (uint64_t{3} << 24) + static_cast<uint64_t>(i);
      batch.tuples.push_back(std::move(tuple));
    }
    for (OperatorId to_op : {1, 2}) {
      for (TaskId producer : t.op(to_op - 1).tasks) {
        for (TaskId consumer : t.op(to_op).tasks) {
          const std::vector<Tuple> expected =
              RouteTupleByTuple(router, producer, to_op, batch, consumer);
          std::vector<Tuple> out = MakeTuples({{"prefix", 7}});
          const size_t routed =
              router.RouteBatchTo(producer, to_op, batch, consumer, &out);
          EXPECT_EQ(routed, expected.size());
          ASSERT_EQ(out.size(), expected.size() + 1);  // Appends.
          EXPECT_EQ(out[0].key, "prefix");
          EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                                 out.begin() + 1));
          // The count-only path replay estimation uses.
          EXPECT_EQ(router.RouteBatchTo(producer, to_op, batch, consumer,
                                        nullptr),
                    expected.size());
        }
      }
    }
    // One-to-one: producer 0's whole batch goes to mid task 0 only.
    const TaskId src0 = t.op(0).tasks[0];
    std::vector<Tuple> out;
    EXPECT_EQ(router.RouteBatchTo(src0, 1, batch, t.op(1).tasks[0], &out),
              batch.tuples.size());
    EXPECT_EQ(out, batch.tuples);
    // A task that is not a consumer of the edge gets nothing.
    out.clear();
    EXPECT_EQ(router.RouteBatchTo(src0, 1, batch, t.op(1).tasks[1], &out), 0u);
    EXPECT_EQ(router.RouteBatchTo(src0, 1, batch, t.op(2).tasks[0], &out), 0u);
    EXPECT_EQ(router.RouteBatchTo(src0, 1, batch, t.op(1).tasks[1], nullptr),
              0u);
    EXPECT_TRUE(out.empty());
  }
}

class CountingSource : public SourceFunction {
 public:
  explicit CountingSource(int per_batch) : per_batch_(per_batch) {}
  std::vector<Tuple> NextBatch(int64_t batch, int task) override {
    std::vector<Tuple> out;
    for (int i = 0; i < per_batch_; ++i) {
      Tuple t;
      t.key = "k" + std::to_string(i);
      t.value = batch * 100 + task;
      out.push_back(std::move(t));
    }
    return out;
  }

 private:
  int per_batch_;
};

Topology MakeTinyChain() {
  return MakeChain(1, 1, 1, PartitionScheme::kOneToOne,
                   PartitionScheme::kOneToOne);
}

TEST(TaskRuntimeTest, SourceGeneratesDeterministicSeqs) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(3));
  const BatchOutput& out = rt.RunBatch(0, {});
  ASSERT_EQ(out.tuples.size(), 3u);
  EXPECT_EQ(out.tuples[0].seq, 0u);
  EXPECT_EQ(out.tuples[1].seq, 1u);
  EXPECT_EQ(out.tuples[0].producer, rt.id());
  const BatchOutput& out1 = rt.RunBatch(1, {});
  EXPECT_EQ(out1.tuples[0].seq, uint64_t{1} << 24);
  EXPECT_EQ(rt.next_batch(), 2);
}

TEST(TaskRuntimeTest, DuplicateEliminationBySeq) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<PassThroughOperator>(), nullptr);
  auto inputs = MakeTuples({{"a", 1}, {"b", 2}}, /*producer=*/0, /*batch=*/0);
  const BatchOutput& out = rt.RunBatch(0, inputs);
  EXPECT_EQ(out.tuples.size(), 2u);
  // Feed the same tuples again in the next batch: both are dropped.
  const BatchOutput& out1 = rt.RunBatch(1, inputs);
  EXPECT_TRUE(out1.tuples.empty());
  EXPECT_EQ(rt.processed_tuples(), 2);
}

TEST(TaskRuntimeTest, ProgressVectorTracksMaxSeq) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<PassThroughOperator>(), nullptr);
  rt.RunBatch(0, MakeTuples({{"a", 1}, {"b", 2}}, 0, 0));
  ASSERT_EQ(rt.progress_vector().size(), 1u);
  EXPECT_EQ(rt.progress_vector().at(0), 1u);
}

/// Passes its input through and records the (producer, seq) order it
/// was handed.
class RecordingOperator : public PassThroughOperator {
 public:
  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override {
    for (const Tuple& t : inputs) {
      seen.emplace_back(t.producer, t.seq);
    }
    PassThroughOperator::ProcessBatch(ctx, inputs);
  }
  std::vector<std::pair<TaskId, uint64_t>> seen;
};

TEST(TaskRuntimeTest, UnsortedProducersAreSortedBeforeProcessing) {
  Topology t = MakeTinyChain();
  auto make = [&](RecordingOperator** op) {
    auto owned = std::make_unique<RecordingOperator>();
    *op = owned.get();
    return std::make_unique<TaskRuntime>(&t, t.op(1).tasks[0],
                                         std::move(owned), nullptr);
  };
  RecordingOperator* sorted_op = nullptr;
  RecordingOperator* unsorted_op = nullptr;
  auto sorted_rt = make(&sorted_op);
  auto unsorted_rt = make(&unsorted_op);
  for (int64_t b = 0; b < 3; ++b) {
    const std::vector<Tuple> p0 = MakeTuples({{"a", b}, {"b", b}}, 0, b);
    const std::vector<Tuple> p1 =
        MakeTuples({{"c", b}, {"d", b}, {"e", b}}, 1, b);
    std::vector<Tuple> ascending = p0;
    ascending.insert(ascending.end(), p1.begin(), p1.end());
    std::vector<Tuple> descending = p1;
    descending.insert(descending.end(), p0.begin(), p0.end());
    const BatchOutput& so = sorted_rt->RunBatch(b, ascending);
    const BatchOutput& uo = unsorted_rt->RunBatch(b, descending);
    EXPECT_EQ(so.tuples, uo.tuples) << "batch " << b;
  }
  EXPECT_EQ(sorted_op->seen, unsorted_op->seen);
  ASSERT_EQ(sorted_op->seen.size(), 15u);
  EXPECT_EQ(sorted_op->seen.front(), std::make_pair(TaskId{0}, uint64_t{0}));
  EXPECT_EQ(unsorted_rt->progress_vector(), sorted_rt->progress_vector());
  EXPECT_EQ(unsorted_rt->progress_vector().at(0), (uint64_t{2} << 24) + 1);
  EXPECT_EQ(unsorted_rt->progress_vector().at(1), (uint64_t{2} << 24) + 2);
  EXPECT_EQ(unsorted_rt->processed_tuples(), 15);
}

TEST(TaskRuntimeTest, ReplayedPrefixIsDroppedAndFreshSuffixKept) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<PassThroughOperator>(), nullptr);
  const std::vector<Tuple> b0 =
      MakeTuples({{"a", 1}, {"b", 2}, {"c", 3}}, /*producer=*/4, 0);
  rt.RunBatch(0, b0);
  // A replayed tail of batch 0 followed by batch 1's fresh tuples, all
  // from the same producer in one batch.
  std::vector<Tuple> mixed(b0.begin() + 1, b0.end());
  const std::vector<Tuple> b1 = MakeTuples({{"d", 4}, {"e", 5}}, 4, 1);
  mixed.insert(mixed.end(), b1.begin(), b1.end());
  const BatchOutput& out = rt.RunBatch(1, mixed);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].key, "d");
  EXPECT_EQ(out.tuples[1].key, "e");
  EXPECT_EQ(rt.processed_tuples(), 5);
  ASSERT_EQ(rt.progress_vector().size(), 1u);
  EXPECT_EQ(rt.progress_vector().at(4), (uint64_t{1} << 24) + 1);
}

TEST(TaskRuntimeTest, SnapshotRestoreRoundTrip) {
  Topology t = MakeTinyChain();
  TaskRuntime a(&t, t.op(1).tasks[0],
                std::make_unique<SlidingWindowAggregateOperator>(3, 1.0),
                nullptr);
  for (int64_t b = 0; b < 5; ++b) {
    a.RunBatch(b, MakeTuples({{"x", b}}, 0, b));
  }
  auto snap = a.Snapshot();
  ASSERT_TRUE(snap.ok());

  TaskRuntime b2(&t, t.op(1).tasks[0],
                 std::make_unique<SlidingWindowAggregateOperator>(3, 1.0),
                 nullptr);
  ASSERT_TRUE(b2.Restore(*snap).ok());
  EXPECT_EQ(b2.next_batch(), a.next_batch());
  EXPECT_EQ(b2.StateSizeTuples(), a.StateSizeTuples());
  EXPECT_EQ(b2.progress_vector(), a.progress_vector());
  EXPECT_EQ(b2.BufferedTuples(), a.BufferedTuples());
  // Identical continued behaviour.
  auto next = MakeTuples({{"y", 42}}, 0, 5);
  const BatchOutput& oa = a.RunBatch(5, next);
  const BatchOutput& ob = b2.RunBatch(5, next);
  ASSERT_EQ(oa.tuples.size(), ob.tuples.size());
  for (size_t i = 0; i < oa.tuples.size(); ++i) {
    EXPECT_EQ(oa.tuples[i], ob.tuples[i]);
  }
}

TEST(TaskRuntimeTest, FindBatchAndTrim) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(2));
  for (int64_t b = 0; b < 5; ++b) {
    rt.RunBatch(b, {});
  }
  EXPECT_NE(rt.FindBatch(0), nullptr);
  EXPECT_NE(rt.FindBatch(4), nullptr);
  EXPECT_EQ(rt.FindBatch(5), nullptr);
  EXPECT_EQ(rt.BufferedTuples(), 10);
  rt.TrimOutputBuffer(2);
  EXPECT_EQ(rt.FindBatch(2), nullptr);
  EXPECT_NE(rt.FindBatch(3), nullptr);
  EXPECT_EQ(rt.BufferedTuples(), 4);
}

TEST(TaskRuntimeTest, ResetRegeneratesIdenticalTuples) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(2));
  std::vector<Tuple> original;
  for (int64_t b = 0; b < 3; ++b) {
    const BatchOutput& out = rt.RunBatch(b, {});
    original.insert(original.end(), out.tuples.begin(), out.tuples.end());
  }
  rt.Reset(0);
  EXPECT_EQ(rt.next_batch(), 0);
  EXPECT_EQ(rt.BufferedTuples(), 0);
  std::vector<Tuple> replayed;
  for (int64_t b = 0; b < 3; ++b) {
    const BatchOutput& out = rt.RunBatch(b, {});
    replayed.insert(replayed.end(), out.tuples.begin(), out.tuples.end());
  }
  ASSERT_EQ(original.size(), replayed.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i], replayed[i]);
  }
}

TEST(TaskRuntimeTest, FailureFlags) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(1));
  EXPECT_TRUE(rt.alive());
  EXPECT_FALSE(rt.ever_failed());
  rt.MarkFailed();
  EXPECT_FALSE(rt.alive());
  EXPECT_TRUE(rt.ever_failed());
  rt.MarkAlive();
  EXPECT_TRUE(rt.alive());
  EXPECT_TRUE(rt.ever_failed());
}

// --- Checkpoint wire format ---------------------------------------------
//
// Every expected blob below is built with the per-field PutString / PutI64
// / PutU64 sequence, so the bulk tuple codec is pinned to the layout
// `u64 key length, key bytes, i64 value, i64 batch, u64 seq, i64 producer`.

void PutTupleByField(BinaryWriter* w, const Tuple& t) {
  w->PutString(t.key);
  w->PutI64(t.value);
  w->PutI64(t.batch);
  w->PutU64(t.seq);
  w->PutI64(t.producer);
}

void PutBatchByField(BinaryWriter* w, const BatchOutput& b) {
  w->PutI64(b.batch);
  w->PutI64(b.ingest_at.micros());
  w->PutI64(b.hops);
  w->PutU64(b.tuples.size());
  for (const Tuple& t : b.tuples) {
    PutTupleByField(w, t);
  }
}

void PutProgressByField(BinaryWriter* w, const TaskRuntime& rt) {
  w->PutU64(rt.progress_vector().size());
  for (const auto& [producer, seq] : rt.progress_vector()) {
    w->PutI64(producer);
    w->PutU64(seq);
  }
}

/// A window slice as the test fed it: batch index and input tuples.
using FedSlice = std::pair<int64_t, std::vector<Tuple>>;

std::string WindowBlobByField(int64_t window_sum,
                              const std::vector<FedSlice>& slices) {
  BinaryWriter w;
  w.PutI64(window_sum);
  w.PutU64(slices.size());
  for (const auto& [batch, tuples] : slices) {
    w.PutI64(batch);
    w.PutU64(tuples.size());
    for (const Tuple& t : tuples) {
      PutTupleByField(&w, t);
    }
  }
  return std::move(w).data();
}

/// Input batch `b` of the window tests: three tuples from producer 0, one
/// with a key too long for the small-string buffer.
std::vector<Tuple> WindowInput(int64_t b) {
  return MakeTuples({{"a", b}, {"a-key-longer-than-any-small-string", 2 * b},
                     {"", -b}},
                    /*producer=*/0, b);
}

std::unique_ptr<TaskRuntime> MakeWindowTask(const Topology& t) {
  return std::make_unique<TaskRuntime>(
      &t, t.op(1).tasks[0],
      std::make_unique<SlidingWindowAggregateOperator>(3, 1.0), nullptr);
}

/// `tuples` encoded by EncodeTuplesAt after `prefix`, into a buffer whose
/// every byte first held `fill`; the bytes past the tuples must keep it.
std::string EncodeAfter(const std::string& prefix,
                        const std::vector<Tuple>& tuples, char fill = '\xab') {
  const size_t bytes = EncodedTupleBytes(tuples);
  std::string out(prefix.size() + bytes + 8, fill);
  std::copy(prefix.begin(), prefix.end(), out.begin());
  char* const at = out.data() + prefix.size();
  EXPECT_EQ(EncodeTuplesAt(tuples, bytes, at), at + bytes);
  EXPECT_EQ(out.substr(prefix.size() + bytes), std::string(8, fill))
      << "EncodeTuplesAt wrote past its range";
  out.resize(prefix.size() + bytes);
  return out;
}

TEST(SerdeTest, EncodeTuplesAtMatchesPerFieldEncoding) {
  std::vector<Tuple> tuples =
      MakeTuples({{"k", 7}, {"", -3}, {"a-key-longer-than-any-small-string", 1}},
                 /*producer=*/5, /*batch=*/9);
  tuples[1].producer = kInvalidTaskId;  // Raw source input.
  tuples[2].seq = ~uint64_t{0};
  const std::string bulk = EncodeAfter("", tuples);
  BinaryWriter by_field;
  for (const Tuple& t : tuples) {
    PutTupleByField(&by_field, t);
  }
  EXPECT_EQ(bulk, by_field.data());
  EXPECT_EQ(bulk.size(), EncodedTupleBytes(tuples));

  BinaryReader r(bulk);
  std::vector<Tuple> back;
  ASSERT_TRUE(r.GetTuples(tuples.size(), &back).ok());
  EXPECT_EQ(back, tuples);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, EncodeTuplesAtFixedWidthKeyCopiesLeaveNoStaleBytes) {
  // Keys are copied at their full 35-byte capacity while that fits in the
  // range, so the bytes past a key's length (here stale: each key first
  // held a longer one, and the buffer starts as garbage) must all be
  // overwritten, the short keys at the end of the range take the
  // exact-length copy, and nothing past the range is touched.
  const std::string full(TupleKey::kCapacity, 'f');
  for (const char* last : {"", "k", "ab", "a-key-longer-than-any-small-string"}) {
    std::vector<Tuple> tuples = MakeTuples(
        {{"x", 1}, {"", 2}, {"y", 3}, {"", 4}, {last, 5}}, /*producer=*/3,
        /*batch=*/2);
    tuples[2].key = full;
    for (size_t i : {size_t{0}, size_t{1}, size_t{3}, size_t{4}}) {
      const std::string key(tuples[i].key.view());
      tuples[i].key = full;
      tuples[i].key = key;
    }
    BinaryWriter prefix;
    prefix.PutI64(-1);  // the tuples start at an offset into the buffer
    BinaryWriter by_field;
    by_field.PutI64(-1);
    for (const Tuple& t : tuples) {
      PutTupleByField(&by_field, t);
    }
    for (char fill : {'\0', '\xab'}) {
      EXPECT_EQ(EncodeAfter(prefix.data(), tuples, fill), by_field.data())
          << "last key '" << last << "'";
    }
  }
}

TEST(SerdeDeathTest, EncodeTuplesAtChecksThePresizedLength) {
  const std::vector<Tuple> tuples = MakeTuples({{"key", 1}, {"k", 2}});
  const size_t bytes = EncodedTupleBytes(tuples);
  std::string out(bytes + 1, '\0');
  EXPECT_DEATH(EncodeTuplesAt(tuples, bytes + 1, out.data()),
               "do not encode to the presized");
  EXPECT_DEATH(EncodeTuplesAt(tuples, bytes - 1, out.data()),
               "do not encode to the presized");
}

TEST(SerdeTest, GetTuplesRejectsCountsAndKeysBeyondTheBuffer) {
  const std::string one = EncodeAfter("", MakeTuples({{"key", 1}}));
  std::vector<Tuple> out;
  BinaryReader too_many(one);
  EXPECT_EQ(too_many.GetTuples(uint64_t{1} << 62, &out).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(too_many.GetTuples(2, &out).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(out.empty());

  BinaryWriter huge_key;
  huge_key.PutU64(~uint64_t{0});
  huge_key.PutI64(0);
  huge_key.PutI64(0);
  huge_key.PutU64(0);
  huge_key.PutI64(0);
  BinaryReader r(huge_key.data());
  EXPECT_EQ(r.GetTuples(1, &out).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(out.empty());
}

TEST(CheckpointWireFormatTest, SourceTaskSnapshotMatchesPerFieldLayout) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(0).tasks[0], nullptr,
                 std::make_unique<CountingSource>(3));
  for (int64_t b = 0; b < 4; ++b) {
    BatchRunContext ctx;
    ctx.ingest_at = TimePoint::FromMicros(1000 * b + 17);
    ctx.hops = static_cast<int32_t>(b + 1);
    rt.RunBatch(b, {}, ctx);
  }
  rt.TrimOutputBuffer(0);
  auto snap = rt.Snapshot();
  ASSERT_TRUE(snap.ok());

  BinaryWriter w;
  w.PutI64(4);
  PutProgressByField(&w, rt);
  w.PutString("");
  w.PutU64(3);
  for (const BatchOutput& b : rt.output_buffer()) {
    PutBatchByField(&w, b);
  }
  EXPECT_EQ(*snap, w.data());
}

TEST(CheckpointWireFormatTest, WindowTaskSnapshotAndDeltaMatchPerFieldLayout) {
  Topology t = MakeTinyChain();
  auto rt = MakeWindowTask(t);
  std::vector<FedSlice> fed;
  for (int64_t b = 0; b < 5; ++b) {
    fed.emplace_back(b, WindowInput(b));
    rt->RunBatch(b, fed.back().second);
  }
  rt->TrimOutputBuffer(1);
  auto snap = rt->Snapshot();
  ASSERT_TRUE(snap.ok());

  // The window holds batches 2..4; each batch sums to 2 * b.
  const std::vector<FedSlice> window(fed.begin() + 2, fed.end());
  BinaryWriter w;
  w.PutI64(5);
  PutProgressByField(&w, *rt);
  w.PutString(WindowBlobByField(2 * (2 + 3 + 4), window));
  w.PutU64(3);
  for (const BatchOutput& b : rt->output_buffer()) {
    PutBatchByField(&w, b);
  }
  EXPECT_EQ(*snap, w.data());

  for (int64_t b = 5; b < 7; ++b) {
    fed.emplace_back(b, WindowInput(b));
    rt->RunBatch(b, fed.back().second);
  }
  auto delta = rt->SnapshotDelta();
  ASSERT_TRUE(delta.ok());
  BinaryWriter op_delta;
  op_delta.PutI64(6);  // Horizon: the newest slice.
  op_delta.PutU64(2);
  for (int64_t b = 5; b < 7; ++b) {
    op_delta.PutI64(b);
    op_delta.PutU64(fed[static_cast<size_t>(b)].second.size());
    for (const Tuple& tu : fed[static_cast<size_t>(b)].second) {
      PutTupleByField(&op_delta, tu);
    }
  }
  BinaryWriter d;
  d.PutI64(7);
  PutProgressByField(&d, *rt);
  d.PutString(op_delta.data());
  d.PutI64(2);  // Trim level: the oldest buffered batch.
  d.PutU64(2);
  for (const BatchOutput& b : rt->output_buffer()) {
    if (b.batch >= 5) {
      PutBatchByField(&d, b);
    }
  }
  EXPECT_EQ(delta->blob, d.data());
  EXPECT_EQ(delta->state_tuples, 4 * 3);
}

/// Input batch `b` of the golden checkpoint task: producers 0 and 2 send
/// every batch, producer 1 only the even ones.
std::vector<Tuple> GoldenInput(int64_t b) {
  std::vector<Tuple> in;
  for (TaskId p : {0, 1, 2}) {
    if (p == 1 && b % 2 != 0) {
      continue;
    }
    std::vector<Tuple> part =
        MakeTuples({{"k", b + p},
                    {"a-key-longer-than-any-small-string", 3 * b - p},
                    {"", -b}},
                   p, b);
    in.insert(in.end(), part.begin(), part.end());
  }
  return in;
}

TEST(CheckpointWireFormatTest, WindowTaskBlobsMatchGoldenBytes) {
  // Pins both task-checkpoint encodings byte for byte on a window task
  // with three progress entries, a partly trimmed buffer and a
  // fast-forwarded stretch. The constants were captured before the full
  // and delta codecs were folded into one; any wire change shows here.
  Topology t = MakeChain(3, 1, 1, PartitionScheme::kMerge,
                         PartitionScheme::kOneToOne);
  const TaskId mid = t.op(1).tasks[0];
  auto make = [&] {
    return std::make_unique<TaskRuntime>(
        &t, mid, std::make_unique<SlidingWindowAggregateOperator>(3, 0.5),
        nullptr);
  };
  auto rt = make();
  auto run = [&](int64_t b) {
    BatchRunContext ctx;
    ctx.ingest_at = TimePoint::FromMicros(1000 * b + 17);
    ctx.hops = static_cast<int32_t>(2 + b % 3);
    rt->RunBatch(b, GoldenInput(b), ctx);
  };
  for (int64_t b = 0; b < 4; ++b) {
    run(b);
  }
  rt->TrimOutputBuffer(1);
  rt->FastForward(6);
  for (int64_t b = 6; b < 8; ++b) {
    run(b);
  }
  auto full = rt->Snapshot();
  ASSERT_TRUE(full.ok());
  for (int64_t b = 8; b < 10; ++b) {
    run(b);
  }
  rt->FastForward(11);
  run(11);
  rt->TrimOutputBuffer(7);
  auto delta = rt->SnapshotDelta();
  ASSERT_TRUE(delta.ok());

  EXPECT_EQ(full->size(), 1733u);
  EXPECT_EQ(Fnv1a64(*full), uint64_t{12015187165656732197u});
  EXPECT_EQ(delta->blob.size(), 1358u);
  EXPECT_EQ(Fnv1a64(delta->blob), uint64_t{5665887766798262299u});
  EXPECT_EQ(delta->state_tuples, 22);

  // The chain restores to the live task.
  auto back = make();
  ASSERT_TRUE(back->Restore(*full).ok());
  ASSERT_TRUE(back->ApplyDelta(delta->blob).ok());
  EXPECT_EQ(back->next_batch(), rt->next_batch());
  EXPECT_EQ(back->progress_vector(), rt->progress_vector());
  EXPECT_EQ(back->BufferedTuples(), rt->BufferedTuples());
  EXPECT_EQ(back->StateSizeTuples(), rt->StateSizeTuples());
  ASSERT_EQ(back->output_buffer().size(), rt->output_buffer().size());
  for (size_t i = 0; i < rt->output_buffer().size(); ++i) {
    EXPECT_EQ(back->output_buffer()[i].batch, rt->output_buffer()[i].batch);
    EXPECT_EQ(back->output_buffer()[i].tuples, rt->output_buffer()[i].tuples);
  }
}

/// A full snapshot and a following delta of a window task.
struct WindowCheckpoints {
  std::string snapshot;
  std::string delta;
  std::string window_state;
};

WindowCheckpoints MakeWindowCheckpoints(const Topology& t) {
  auto rt = MakeWindowTask(t);
  for (int64_t b = 0; b < 4; ++b) {
    rt->RunBatch(b, WindowInput(b));
  }
  WindowCheckpoints out;
  out.snapshot = *rt->Snapshot();
  rt->RunBatch(4, WindowInput(4));
  out.delta = rt->SnapshotDelta()->blob;
  SlidingWindowAggregateOperator op(3, 1.0);
  for (int64_t b = 0; b < 4; ++b) {
    BatchContext ctx(b, 0, 1);
    op.ProcessBatch(&ctx, WindowInput(b));
  }
  out.window_state = *op.SnapshotState();
  return out;
}

TEST(CheckpointWireFormatTest, EveryTruncatedCheckpointIsRejected) {
  Topology t = MakeTinyChain();
  const WindowCheckpoints cp = MakeWindowCheckpoints(t);
  TaskRuntime src(&t, t.op(0).tasks[0], nullptr,
                  std::make_unique<CountingSource>(2));
  for (int64_t b = 0; b < 3; ++b) {
    src.RunBatch(b, {});
  }
  const std::string source_snapshot = *src.Snapshot();

  for (size_t n = 0; n < cp.snapshot.size(); ++n) {
    EXPECT_FALSE(MakeWindowTask(t)->Restore(cp.snapshot.substr(0, n)).ok())
        << "task snapshot prefix " << n;
  }
  for (size_t n = 0; n < source_snapshot.size(); ++n) {
    TaskRuntime fresh(&t, t.op(0).tasks[0], nullptr,
                      std::make_unique<CountingSource>(2));
    EXPECT_FALSE(fresh.Restore(source_snapshot.substr(0, n)).ok())
        << "source snapshot prefix " << n;
  }
  for (size_t n = 0; n < cp.window_state.size(); ++n) {
    SlidingWindowAggregateOperator op(3, 1.0);
    EXPECT_FALSE(op.RestoreState(cp.window_state.substr(0, n)).ok())
        << "window snapshot prefix " << n;
  }
  for (size_t n = 0; n < cp.delta.size(); ++n) {
    auto rt = MakeWindowTask(t);
    ASSERT_TRUE(rt->Restore(cp.snapshot).ok());
    EXPECT_FALSE(rt->ApplyDelta(cp.delta.substr(0, n)).ok())
        << "delta prefix " << n;
  }
  // The whole blobs still restore.
  auto rt = MakeWindowTask(t);
  ASSERT_TRUE(rt->Restore(cp.snapshot).ok());
  EXPECT_TRUE(rt->ApplyDelta(cp.delta).ok());
}

TEST(CheckpointWireFormatTest, CorruptTupleCountsAreOutOfRange) {
  constexpr uint64_t kHuge = uint64_t{1} << 62;
  Topology t = MakeTinyChain();

  // A source-task snapshot with one buffered batch claiming 2^62 tuples.
  BinaryWriter task;
  task.PutI64(1);
  task.PutU64(0);
  task.PutString("");
  task.PutU64(1);
  task.PutI64(0);
  task.PutI64(0);
  task.PutI64(1);
  task.PutU64(kHuge);
  TaskRuntime src(&t, t.op(0).tasks[0], nullptr,
                  std::make_unique<CountingSource>(1));
  EXPECT_EQ(src.Restore(task.data()).code(), StatusCode::kOutOfRange);

  // A window with one slice claiming 2^62 tuples, directly and inside a
  // task checkpoint. The same bytes read as a full snapshot (sum 0) and
  // as a delta (horizon 0).
  BinaryWriter window;
  window.PutI64(0);
  window.PutU64(1);
  window.PutI64(0);
  window.PutU64(kHuge);
  SlidingWindowAggregateOperator op(3, 1.0);
  EXPECT_EQ(op.RestoreState(window.data()).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(op.ApplyDelta(window.data()).code(), StatusCode::kOutOfRange);
  BinaryWriter window_task;
  window_task.PutI64(1);
  window_task.PutU64(0);
  window_task.PutString(window.data());
  window_task.PutU64(0);
  EXPECT_EQ(MakeWindowTask(t)->Restore(window_task.data()).code(),
            StatusCode::kOutOfRange);

  // A task delta whose one fresh buffered batch claims 2^62 tuples.
  BinaryWriter empty_delta;
  empty_delta.PutI64(-1);
  empty_delta.PutU64(0);
  BinaryWriter task_delta;
  task_delta.PutI64(1);
  task_delta.PutU64(0);
  task_delta.PutString(empty_delta.data());
  task_delta.PutI64(0);
  task_delta.PutU64(1);
  task_delta.PutI64(0);
  task_delta.PutI64(0);
  task_delta.PutI64(1);
  task_delta.PutU64(kHuge);
  EXPECT_EQ(MakeWindowTask(t)->ApplyDelta(task_delta.data()).code(),
            StatusCode::kOutOfRange);

  // A join side whose one key claims 2^62 window entries.
  BinaryWriter side;
  side.PutU64(1);
  side.PutString("k");
  side.PutU64(kHuge);
  BinaryWriter empty_side;
  empty_side.PutU64(0);
  BinaryWriter join;
  join.PutString(side.data());
  join.PutString(empty_side.data());
  SymmetricWindowJoinOperator join_op(
      3, [](const Tuple& tu) { return tu.value < 1000; });
  EXPECT_EQ(join_op.RestoreState(join.data()).code(), StatusCode::kOutOfRange);
}

TEST(CheckpointWireFormatTest, UnorderedWindowSlicesAreRejected) {
  // Evict() drops slices from the front by batch index, so a window
  // restored out of batch order would evict the wrong slices. A full
  // snapshot is rejected as a delta and a task checkpoint already are.
  for (const std::vector<int64_t>& order :
       {std::vector<int64_t>{3, 2}, std::vector<int64_t>{2, 4, 4},
        std::vector<int64_t>{5, 1, 6}}) {
    std::vector<FedSlice> slices;
    for (int64_t b : order) {
      slices.emplace_back(b, WindowInput(b));
    }
    SlidingWindowAggregateOperator op(3, 1.0);
    EXPECT_EQ(op.RestoreState(WindowBlobByField(0, slices)).code(),
              StatusCode::kInvalidArgument)
        << "slice " << order[1] << " after " << order[0];
  }

  // In order, slices restore, and a later batch evicts by batch index:
  // batch 5 drops slice 2 and keeps slice 3 in the window of 3.
  SlidingWindowAggregateOperator op(3, 1.0);
  ASSERT_TRUE(op.RestoreState(WindowBlobByField(
                                  2 * (2 + 3), {{2, WindowInput(2)},
                                                {3, WindowInput(3)}}))
                  .ok());
  BatchContext ctx(5, 0, 1);
  op.ProcessBatch(&ctx, {});
  EXPECT_EQ(op.StateSizeTuples(), 3);
}

/// Tuple counts recovered by decoding a window task's Snapshot() blob.
struct DecodedCounts {
  int64_t state_tuples = 0;
  int64_t buffered_tuples = 0;
};

DecodedCounts DecodeWindowTaskSnapshot(const std::string& blob) {
  DecodedCounts counts;
  BinaryReader r(blob);
  EXPECT_TRUE(r.GetI64().ok());
  const uint64_t entries = *r.GetU64();
  for (uint64_t i = 0; i < 2 * entries; ++i) {
    EXPECT_TRUE(r.GetU64().ok());
  }
  const std::string op_state = *r.GetString();
  BinaryReader w(op_state);
  EXPECT_TRUE(w.GetI64().ok());
  const uint64_t slices = *w.GetU64();
  for (uint64_t i = 0; i < slices; ++i) {
    EXPECT_TRUE(w.GetI64().ok());
    const uint64_t n = *w.GetU64();
    std::vector<Tuple> tuples;
    EXPECT_TRUE(w.GetTuples(n, &tuples).ok());
    counts.state_tuples += static_cast<int64_t>(n);
  }
  EXPECT_TRUE(w.exhausted());
  const uint64_t batches = *r.GetU64();
  for (uint64_t i = 0; i < batches; ++i) {
    for (int field = 0; field < 3; ++field) {
      EXPECT_TRUE(r.GetI64().ok());
    }
    const uint64_t n = *r.GetU64();
    std::vector<Tuple> tuples;
    EXPECT_TRUE(r.GetTuples(n, &tuples).ok());
    counts.buffered_tuples += static_cast<int64_t>(n);
  }
  EXPECT_TRUE(r.exhausted());
  return counts;
}

/// Checkpoint bytes of buffered batch `b`, recounted: the header (batch,
/// ingest time, hops, tuple count) and the tuples.
size_t RecountBatchBytes(const BatchOutput& b) {
  return 4 * sizeof(int64_t) + EncodedTupleBytes(b.tuples);
}

/// Snapshot() aborts if its presized length is off, so a successful
/// snapshot checks the byte counters; the tuple counters and each batch's
/// cached size are compared with a recount of the buffer and of the
/// decoded blob.
void ExpectCountersExact(TaskRuntime* rt, const std::string& when) {
  SCOPED_TRACE(when);
  int64_t walked = 0;
  for (const BatchOutput& b : rt->output_buffer()) {
    walked += static_cast<int64_t>(b.tuples.size());
    EXPECT_EQ(b.encoded_bytes, RecountBatchBytes(b)) << "batch " << b.batch;
  }
  EXPECT_EQ(rt->BufferedTuples(), walked);
  auto snap = rt->Snapshot();
  ASSERT_TRUE(snap.ok());
  const DecodedCounts decoded = DecodeWindowTaskSnapshot(*snap);
  EXPECT_EQ(rt->BufferedTuples(), decoded.buffered_tuples);
  EXPECT_EQ(rt->StateSizeTuples(), decoded.state_tuples);
}

TEST(CheckpointWireFormatTest, SizeCountersTrackEveryBufferAndWindowChange) {
  Topology t = MakeTinyChain();
  auto a = MakeWindowTask(t);
  ExpectCountersExact(a.get(), "empty");
  for (int64_t b = 0; b < 6; ++b) {
    a->RunBatch(b, WindowInput(b));
  }
  a->TrimOutputBuffer(2);
  ExpectCountersExact(a.get(), "after RunBatch and TrimOutputBuffer");
  EXPECT_EQ(a->BufferedTuples(), 9);
  EXPECT_EQ(a->StateSizeTuples(), 9);
  const std::string base = *a->Snapshot();
  for (int64_t b = 6; b < 8; ++b) {
    a->RunBatch(b, WindowInput(b));
  }
  a->TrimOutputBuffer(4);
  auto delta = a->SnapshotDelta();
  ASSERT_TRUE(delta.ok());

  auto b = MakeWindowTask(t);
  ASSERT_TRUE(b->Restore(base).ok());
  ExpectCountersExact(b.get(), "after Restore");
  ASSERT_TRUE(b->ApplyDelta(delta->blob).ok());
  ExpectCountersExact(b.get(), "after ApplyDelta");
  EXPECT_EQ(b->BufferedTuples(), a->BufferedTuples());
  EXPECT_EQ(b->StateSizeTuples(), a->StateSizeTuples());
  EXPECT_EQ(*b->Snapshot(), *a->Snapshot());

  b->Reset(3);
  ExpectCountersExact(b.get(), "after Reset");
  EXPECT_EQ(b->BufferedTuples(), 0);
  EXPECT_EQ(b->StateSizeTuples(), 0);
  b->RunBatch(3, WindowInput(3));
  b->TrimOutputBuffer(3);
  b->RunBatch(4, WindowInput(4));
  ExpectCountersExact(b.get(), "after Reset, RunBatch and TrimOutputBuffer");
  EXPECT_EQ(b->BufferedTuples(), 3);
  EXPECT_EQ(b->StateSizeTuples(), 6);
}

TEST(CheckpointWireFormatTest, SourceBatchesCarryTheirEncodedSize) {
  Topology t = MakeTinyChain();
  TaskRuntime src(&t, t.op(0).tasks[0], nullptr,
                  std::make_unique<CountingSource>(12));
  for (int64_t b = 0; b < 4; ++b) {
    const BatchOutput& out = src.RunBatch(b, {});
    EXPECT_EQ(out.encoded_bytes, RecountBatchBytes(out));
  }
  src.TrimOutputBuffer(1);
  TaskRuntime twin(&t, t.op(0).tasks[0], nullptr,
                   std::make_unique<CountingSource>(12));
  ASSERT_TRUE(twin.Restore(*src.Snapshot()).ok());
  ASSERT_EQ(twin.output_buffer().size(), 2u);
  for (const BatchOutput& b : twin.output_buffer()) {
    EXPECT_EQ(b.encoded_bytes, RecountBatchBytes(b)) << "batch " << b.batch;
  }
  EXPECT_EQ(*twin.Snapshot(), *src.Snapshot());
}

/// The op-state string of a task blob from Snapshot() or SnapshotDelta():
/// both start with the next batch, the progress map and the op state.
std::string OpStateOf(const std::string& task_blob) {
  BinaryReader r(task_blob);
  EXPECT_TRUE(r.GetI64().ok());
  const uint64_t entries = *r.GetU64();
  for (uint64_t i = 0; i < 2 * entries; ++i) {
    EXPECT_TRUE(r.GetU64().ok());
  }
  return *r.GetString();
}

/// Input batch `b` of the adoption tests: two producers' tuples, a
/// varying number per batch, so slices differ in size and sum.
std::vector<Tuple> AdoptionInput(int64_t b) {
  std::vector<Tuple> inputs;
  for (TaskId producer : {0, 1}) {
    const int64_t n = 2 + (b + producer) % 4;
    for (int64_t i = 0; i < n; ++i) {
      Tuple tu;
      tu.key = TupleKey::Numbered("k", i * 7 + producer);
      tu.value = b * 100 + i - producer;
      tu.batch = b;
      tu.seq = (static_cast<uint64_t>(b) << 24) + static_cast<uint64_t>(i);
      tu.producer = producer;
      inputs.push_back(tu);
    }
  }
  return inputs;
}

// RunBatch hands its inputs to the window (the adopt path); a direct
// ProcessBatch call cannot, so the window copies them. Both keep the same
// slices: outputs and every full and delta snapshot agree byte for byte
// across evictions.
TEST(WindowAdoptionTest, AdoptedAndCopiedInputsKeepIdenticalState) {
  Topology t = MakeTinyChain();
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<SlidingWindowAggregateOperator>(3, 0.5),
                 nullptr);
  SlidingWindowAggregateOperator copied(3, 0.5);
  for (int64_t b = 0; b < 9; ++b) {
    SCOPED_TRACE(b);
    const std::vector<Tuple> inputs = AdoptionInput(b);
    const BatchOutput& adopted_out = rt.RunBatch(b, inputs);
    BatchContext ctx(b, 0, 1);
    std::vector<Tuple> unused;
    EXPECT_FALSE(ctx.AdoptInputs(&unused));
    copied.ProcessBatch(&ctx, inputs);
    ASSERT_EQ(adopted_out.tuples.size(), ctx.emitted().size());
    for (size_t i = 0; i < ctx.emitted().size(); ++i) {
      EXPECT_EQ(adopted_out.tuples[i].key, ctx.emitted()[i].key);
      EXPECT_EQ(adopted_out.tuples[i].value, ctx.emitted()[i].value);
    }
    EXPECT_EQ(rt.StateSizeTuples(), copied.StateSizeTuples());
    if (b == 4) {
      EXPECT_EQ(OpStateOf(*rt.Snapshot()), *copied.SnapshotState());
    } else if (b > 4) {
      int64_t copied_tuples = 0;
      const std::string copied_delta = *copied.SnapshotDelta(&copied_tuples);
      auto delta = rt.SnapshotDelta();
      ASSERT_TRUE(delta.ok());
      EXPECT_EQ(OpStateOf(delta->blob), copied_delta);
    }
  }
  EXPECT_EQ(OpStateOf(*rt.Snapshot()), *copied.SnapshotState());
}

/// Forwards to a window operator and counts the inputs it sees once the
/// inner ProcessBatch has returned, as a timing decorator does.
class InputCountingOperator : public OperatorFunction {
 public:
  explicit InputCountingOperator(int64_t* seen)
      : inner_(std::make_unique<SlidingWindowAggregateOperator>(3, 0.5)),
        seen_(seen) {}

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override {
    inner_->ProcessBatch(ctx, inputs);
    *seen_ += static_cast<int64_t>(inputs.size());
  }
  StatusOr<std::string> SnapshotState() override {
    return inner_->SnapshotState();
  }
  Status RestoreState(const std::string& snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  void Reset() override { inner_->Reset(); }
  int64_t StateSizeTuples() const override {
    return inner_->StateSizeTuples();
  }

 private:
  std::unique_ptr<OperatorFunction> inner_;
  int64_t* seen_;
};

TEST(WindowAdoptionTest, DecoratorSeesEveryInputAfterTheInnerCall) {
  Topology t = MakeTinyChain();
  int64_t seen = 0;
  TaskRuntime rt(&t, t.op(1).tasks[0],
                 std::make_unique<InputCountingOperator>(&seen), nullptr);
  int64_t fed = 0;
  for (int64_t b = 0; b < 6; ++b) {
    std::vector<Tuple> inputs = AdoptionInput(b);
    fed += static_cast<int64_t>(inputs.size());
    rt.RunBatch(b, std::move(inputs));
    EXPECT_EQ(seen, fed);
  }
  // The window still took every slice it kept.
  SlidingWindowAggregateOperator copied(3, 0.5);
  for (int64_t b = 0; b < 6; ++b) {
    BatchContext ctx(b, 0, 1);
    copied.ProcessBatch(&ctx, AdoptionInput(b));
  }
  EXPECT_EQ(OpStateOf(*rt.Snapshot()), *copied.SnapshotState());
}

TEST(TupleKeyTest, ReadsAsAStringView) {
  const TupleKey key = TupleKey::Numbered("url", 42);
  EXPECT_EQ(key, "url42");
  EXPECT_EQ(key.size(), 5u);
  EXPECT_EQ(key.str(), std::string("url42"));
  EXPECT_EQ(std::string_view(key.data(), key.size()), "url42");
  EXPECT_EQ(TupleKey::Numbered("inc", -7), "inc-7");
  EXPECT_LT(TupleKey::Numbered("k", 10), TupleKey::Numbered("k", 9));
  EXPECT_LT(key, std::string_view("url5"));
  Tuple t;
  EXPECT_EQ(t.key.size(), 0u);
  t.key = std::string(TupleKey::kCapacity, 'q');
  EXPECT_EQ(t.key.size(), TupleKey::kCapacity);
  std::ostringstream os;
  os << key;
  EXPECT_EQ(os.str(), "url42");
}

TEST(TupleKeyDeathTest, OverlongKeyIsFatalAndNamesItsLength) {
  const std::string key(TupleKey::kCapacity + 1, 'x');
  Tuple t;
  EXPECT_DEATH(t.key = key, "tuple key of 36 bytes exceeds 35");
  EXPECT_DEATH(TupleKey::Numbered(std::string(30, 'p'), 123456),
               "exceeds 35 bytes");
}

TEST(TupleKeyTest, CapacityKeyRoundTripsThroughSnapshotAndDelta) {
  const std::string key(TupleKey::kCapacity, 'q');
  auto input = [&key](int64_t b) {
    return MakeTuples({{key.c_str(), b}, {"a", 1}}, /*producer=*/0, b);
  };
  Topology t = MakeTinyChain();
  auto rt = MakeWindowTask(t);
  for (int64_t b = 0; b < 4; ++b) {
    rt->RunBatch(b, input(b));
  }
  auto snap = rt->Snapshot();
  ASSERT_TRUE(snap.ok());
  auto restored = MakeWindowTask(t);
  ASSERT_TRUE(restored->Restore(*snap).ok());
  ASSERT_FALSE(restored->output_buffer().empty());
  EXPECT_EQ(restored->output_buffer().back().tuples[0].key, key);
  EXPECT_EQ(restored->output_buffer().back().tuples,
            rt->output_buffer().back().tuples);
  EXPECT_EQ(*restored->Snapshot(), *snap);

  rt->RunBatch(4, input(4));
  auto delta = rt->SnapshotDelta();
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(restored->ApplyDelta(delta->blob).ok());
  EXPECT_EQ(restored->output_buffer().back().tuples[0].key, key);
  EXPECT_EQ(*restored->Snapshot(), *rt->Snapshot());
}

TEST(SerdeTest, GetTuplesRejectsStoredKeyOverCapacity) {
  // A whole, well-formed tuple whose key is one byte over capacity.
  BinaryWriter w;
  w.PutString(std::string(TupleKey::kCapacity + 1, 'x'));
  w.PutI64(1);
  w.PutI64(2);
  w.PutU64(3);
  w.PutI64(4);
  std::vector<Tuple> out;
  BinaryReader r(w.data());
  EXPECT_EQ(r.GetTuples(1, &out).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(out.empty());
}

TEST(RouterTest, RouteMatchesReferenceHashOverThousandKeys) {
  // Pins the partitioning function: the consumer is picked by the
  // operator-salted FNV-1a hash of the key bytes.
  Topology t = MakeChain(2, 5, 3, PartitionScheme::kFull,
                         PartitionScheme::kFull);
  Router router(&t);
  for (OperatorId to_op : {1, 2}) {
    const TaskId producer = t.op(to_op - 1).tasks[0];
    const std::vector<TaskId>& consumers = router.Consumers(producer, to_op);
    ASSERT_GT(consumers.size(), 1u);
    const uint64_t salt = static_cast<uint64_t>(to_op) * 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 1000; ++i) {
      // Lengths 1..35: a run of 'z' then the index.
      const std::string key = std::string(i % 33, 'z') + std::to_string(i);
      Tuple tuple;
      tuple.key = key;
      const uint64_t h = Mix64(Fnv1a64(key) ^ salt);
      EXPECT_EQ(router.Route(producer, to_op, tuple),
                consumers[h % consumers.size()])
          << "key " << key;
    }
  }
}

}  // namespace
}  // namespace ppa
