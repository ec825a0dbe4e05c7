// Per-layer wall-clock microbenchmarks (report-only, google-benchmark).
//
// BM_GatherRunBatch times the task data path of one batch: routing every
// upstream batch of a merge edge into the consumer's input vector (the
// job scheduler's gather), TaskRuntime::RunBatch's ordering and
// duplicate elimination, and the sink's trim of the produced batch. The
// consumer's operator drops its input, so the operator's own work is
// excluded. Shapes:
//   fig6 — 2 producers x 2000 tuples (an O1 task of the Fig. 6 workload);
//   wide — 1536 producers x 1 tuple (the scale_cluster 4096-node sink).
//
// BM_TaskSnapshot and BM_TaskRestore time one full task checkpoint,
// TaskRuntime::Snapshot and TaskRuntime::Restore of its blob. Shapes:
//   fig6_source — a Fig. 6 source task with 10 buffered batches x 2000
//                 tuples;
//   fig6_o1     — an O1 SlidingWindowAggregateOperator task with a full
//                 10-slice window of 4000-tuple slices (2 producers x
//                 2000) and its 10 buffered output batches;
//   wide_mid    — a scale_cluster 4096-node mid task: 1-tuple batches, a
//                 30-slice window and 30 buffered batches.
// BM_TaskSnapshotThreads times the same Snapshot() inside one callback of
// a ThreadedBackend with num_shards = 2, so blobs of two or more 20-KiB
// parts encode on the driving thread and one helper (wall time); a blob
// under 40 KiB (wide_mid) is one inline part.
//
// BM_WindowStep times one steady-state step of a window task:
// TaskRuntime::RunBatch of the next input batch, whose window evicts its
// oldest slice, then the trim of the oldest buffered output batch, so the
// window and the buffer stay full. Input generation is excluded. Shapes:
// fig6_o1 and wide_mid above (2 x 2000 and 1 tuple per batch).
//
// BM_Dispatch times the execution backend's per-callback dispatch: a
// chain of kDispatchChain callbacks, each scheduling the next 1 us later,
// driven with one RunUntil per iteration. The callbacks do no work, so
// the time is the backend's own: timer insertion and the ordered pop of
// the one drive loop, which both backends share. Variants: sim, threads
// (num_shards = 2: the driving thread and one idle fork helper).
//
// BM_SourceBatch times SyntheticSource::NextBatch, the generation of one
// source task's raw batch, and reports source tuples per second. Shapes:
//   fig6 — 2000 tuples over key space 1024 (a Fig. 6 source task at
//          2000 tuples/s);
//   wide — 1 tuple over key space 256 (a scale_cluster 4096-node source
//          task).
//
// BM_OutputFidelity times one sample of a run's fidelity series
// (DeriveFidelitySeries): ComputeOutputFidelity plus
// ComputeInternalCompleteness on the scale_cluster 4096-node topology
// (src 1536 -> mid 1536 -> sink 1, 3,073 tasks) with 64 mid tasks failed.
//
//   ./build/bench/layers --benchmark_min_time=0.05

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/execution_backend.h"
#include "common/logging.h"
#include "engine/operator.h"
#include "engine/router.h"
#include "engine/operators.h"
#include "engine/task_runtime.h"
#include "fidelity/metrics.h"
#include "topology/serialize.h"
#include "topology/task_set.h"
#include "topology/topology.h"
#include "workloads/synthetic_recovery.h"

namespace ppa {
namespace {

/// Consumes its input and emits nothing.
class DropOperator : public OperatorFunction {
 public:
  void ProcessBatch(BatchContext*, const std::vector<Tuple>& inputs) override {
    benchmark::DoNotOptimize(inputs.data());
  }
  StatusOr<std::string> SnapshotState() override { return std::string(); }
  Status RestoreState(const std::string&) override { return OkStatus(); }
  void Reset() override {}
  int64_t StateSizeTuples() const override { return 0; }
};

void BM_GatherRunBatch(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  const int tuples_per_producer = static_cast<int>(state.range(1));
  TopologyBuilder builder;
  const OperatorId src = builder.AddOperator("src", producers);
  const OperatorId sink = builder.AddOperator("sink", 1);
  builder.Connect(src, sink, PartitionScheme::kMerge);
  auto built = builder.Build();
  PPA_CHECK_OK(built.status());
  const Topology topo = *std::move(built);
  const Router router(&topo);
  const TaskId consumer = topo.op(sink).tasks[0];
  TaskRuntime runtime(&topo, consumer, std::make_unique<DropOperator>(),
                      nullptr);

  std::vector<BatchOutput> upstream(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    for (int i = 0; i < tuples_per_producer; ++i) {
      Tuple t;
      t.key = TupleKey::Numbered("k", i % 512);
      t.value = i;
      t.producer = topo.op(src).tasks[static_cast<size_t>(p)];
      upstream[static_cast<size_t>(p)].tuples.push_back(t);
    }
  }

  for (auto _ : state) {
    // Stamp the next batch's sequence numbers, as the producers would.
    state.PauseTiming();
    const int64_t b = runtime.next_batch();
    for (BatchOutput& bo : upstream) {
      bo.batch = b;
      for (size_t i = 0; i < bo.tuples.size(); ++i) {
        bo.tuples[i].batch = b;
        bo.tuples[i].seq = (static_cast<uint64_t>(b) << 24) + i;
      }
    }
    state.ResumeTiming();

    std::vector<Tuple> inputs;
    inputs.reserve(static_cast<size_t>(producers) *
                   static_cast<size_t>(tuples_per_producer));
    for (int si : topo.task(consumer).in_substreams) {
      const Substream& s = topo.substreams()[si];
      router.RouteBatchTo(s.from, sink,
                          upstream[static_cast<size_t>(
                              topo.task(s.from).index_in_op)],
                          consumer, &inputs);
    }
    runtime.RunBatch(b, std::move(inputs));
    runtime.TrimOutputBuffer(b);
  }
  state.SetItemsProcessed(state.iterations() * producers *
                          tuples_per_producer);
}
BENCHMARK(BM_GatherRunBatch)
    ->ArgNames({"producers", "tuples"})
    ->Args({2, 2000})
    ->Args({1536, 1});

enum TaskShape : int64_t { kFig6Source, kFig6O1, kWideMid };

/// A task of one checkpoint shape, loaded with its state, and an empty
/// twin of it that a snapshot restores into. Window shapes also keep what
/// makes their next input batch.
struct LoadedTask {
  Topology topo;
  std::unique_ptr<TaskRuntime> runtime;
  std::unique_ptr<TaskRuntime> twin;
  int64_t window = 0;
  std::unique_ptr<SyntheticSource> input;
  std::vector<TaskId> producers;
};

/// Input batch `b` of a window task, as its producers would send it: each
/// producer's share of `lt`'s input batch, stamped with the producer's
/// batch and sequence numbers.
std::vector<Tuple> WindowTaskInputs(const LoadedTask& lt, int64_t b) {
  std::vector<Tuple> inputs;
  for (size_t p = 0; p < lt.producers.size(); ++p) {
    std::vector<Tuple> part = lt.input->NextBatch(b, static_cast<int>(p));
    for (size_t i = 0; i < part.size(); ++i) {
      part[i].batch = b;
      part[i].seq = (static_cast<uint64_t>(b) << 24) + i;
      part[i].producer = lt.producers[p];
    }
    inputs.insert(inputs.end(), part.begin(), part.end());
  }
  return inputs;
}

std::unique_ptr<LoadedTask> LoadTask(int64_t shape) {
  constexpr int kKeySpace = 1024;
  constexpr uint64_t kSeed = 42;
  TopologyBuilder builder;
  const OperatorId src = builder.AddOperator("src", 2);
  const OperatorId o1 = builder.AddOperator("o1", 1);
  builder.Connect(src, o1, PartitionScheme::kMerge);
  auto built = builder.Build();
  PPA_CHECK_OK(built.status());
  auto lt = std::make_unique<LoadedTask>();
  lt->topo = *std::move(built);
  const Topology* topo = &lt->topo;
  const TaskId source = topo->op(src).tasks[0];
  const TaskId consumer = topo->op(o1).tasks[0];

  if (shape == kFig6Source) {
    for (auto* rt : {&lt->runtime, &lt->twin}) {
      *rt = std::make_unique<TaskRuntime>(
          topo, source, nullptr,
          std::make_unique<SyntheticSource>(2000, kKeySpace, kSeed));
    }
    for (int64_t b = 0; b < 10; ++b) {
      lt->runtime->RunBatch(b, {});
    }
    return lt;
  }

  const bool wide = shape == kWideMid;
  const int64_t window = wide ? 30 : 10;
  const double selectivity = wide ? 1.0 : 0.5;
  for (auto* rt : {&lt->runtime, &lt->twin}) {
    *rt = std::make_unique<TaskRuntime>(
        topo, consumer,
        std::make_unique<SlidingWindowAggregateOperator>(window, selectivity),
        nullptr);
  }
  lt->window = window;
  lt->input =
      std::make_unique<SyntheticSource>(wide ? 1 : 2000, kKeySpace, kSeed);
  lt->producers.assign(topo->op(src).tasks.begin(),
                       topo->op(src).tasks.begin() + (wide ? 1 : 2));
  for (int64_t b = 0; b < lt->window; ++b) {
    lt->runtime->RunBatch(b, WindowTaskInputs(*lt, b));
  }
  return lt;
}

void SetTaskCounters(benchmark::State& state, const TaskRuntime& rt,
                     size_t blob_bytes) {
  static const char* const kLabels[] = {"fig6_source", "fig6_o1",
                                        "wide_mid"};
  state.SetLabel(kLabels[state.range(0)]);
  state.SetItemsProcessed(state.iterations() *
                          (rt.BufferedTuples() + rt.StateSizeTuples()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(blob_bytes));
}

/// The timed loop of BM_TaskSnapshot: one Snapshot() per iteration.
void SnapshotLoop(benchmark::State& state, TaskRuntime* rt) {
  size_t bytes = 0;
  for (auto _ : state) {
    StatusOr<std::string> blob = rt->Snapshot();
    PPA_CHECK_OK(blob.status());
    bytes = blob->size();
    benchmark::DoNotOptimize(blob->data());
    benchmark::ClobberMemory();
  }
  SetTaskCounters(state, *rt, bytes);
}

void BM_TaskSnapshot(benchmark::State& state) {
  const std::unique_ptr<LoadedTask> lt = LoadTask(state.range(0));
  SnapshotLoop(state, lt->runtime.get());
}
BENCHMARK(BM_TaskSnapshot)
    ->ArgNames({"shape"})
    ->Arg(kFig6Source)
    ->Arg(kFig6O1)
    ->Arg(kWideMid);

void BM_TaskSnapshotThreads(benchmark::State& state) {
  const std::unique_ptr<LoadedTask> lt = LoadTask(state.range(0));
  backend::ThreadedBackendOptions options;
  options.num_shards = 2;
  const std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(backend::BackendKind::kThreads, options);
  (void)be->ScheduleAfter(Duration::Zero(),
                          [&] { SnapshotLoop(state, lt->runtime.get()); });
  be->RunUntilIdle();
}
BENCHMARK(BM_TaskSnapshotThreads)
    ->ArgNames({"shape"})
    ->Arg(kFig6Source)
    ->Arg(kFig6O1)
    ->Arg(kWideMid)
    ->UseRealTime();

void BM_TaskRestore(benchmark::State& state) {
  const std::unique_ptr<LoadedTask> lt = LoadTask(state.range(0));
  StatusOr<std::string> blob = lt->runtime->Snapshot();
  PPA_CHECK_OK(blob.status());
  for (auto _ : state) {
    PPA_CHECK_OK(lt->twin->Restore(*blob));
    benchmark::ClobberMemory();
  }
  SetTaskCounters(state, *lt->twin, blob->size());
}
BENCHMARK(BM_TaskRestore)
    ->ArgNames({"shape"})
    ->Arg(kFig6Source)
    ->Arg(kFig6O1)
    ->Arg(kWideMid);

void BM_WindowStep(benchmark::State& state) {
  const std::unique_ptr<LoadedTask> lt = LoadTask(state.range(0));
  TaskRuntime& rt = *lt->runtime;
  int64_t tuples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const int64_t b = rt.next_batch();
    std::vector<Tuple> inputs = WindowTaskInputs(*lt, b);
    tuples += static_cast<int64_t>(inputs.size());
    state.ResumeTiming();

    benchmark::DoNotOptimize(rt.RunBatch(b, std::move(inputs)).tuples.data());
    rt.TrimOutputBuffer(b - lt->window);
  }
  state.SetLabel(state.range(0) == kFig6O1 ? "fig6_o1" : "wide_mid");
  state.SetItemsProcessed(tuples);
}
BENCHMARK(BM_WindowStep)->ArgNames({"shape"})->Arg(kFig6O1)->Arg(kWideMid);

constexpr int kDispatchChain = 1000;

void BM_Dispatch(benchmark::State& state, backend::BackendKind kind) {
  backend::ThreadedBackendOptions options;
  options.num_shards = 2;
  const std::unique_ptr<backend::ExecutionBackend> be =
      backend::MakeBackend(kind, options);
  // Touched only by the chain's callbacks and by this loop between
  // drives, all on this thread.
  int remaining = 0;
  std::function<void()> step = [&] {
    if (--remaining > 0) {
      (void)be->ScheduleAfter(Duration::Micros(1), step);
    }
  };
  for (auto _ : state) {
    remaining = kDispatchChain;
    (void)be->ScheduleAfter(Duration::Micros(1), step);
    be->RunUntil(be->now() + Duration::Micros(kDispatchChain));
  }
  PPA_CHECK(remaining == 0);
  state.SetItemsProcessed(state.iterations() * kDispatchChain);
}
BENCHMARK_CAPTURE(BM_Dispatch, sim, backend::BackendKind::kSim)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_Dispatch, threads, backend::BackendKind::kThreads)
    ->UseRealTime();

void BM_SourceBatch(benchmark::State& state) {
  constexpr int kTasks = 16;
  const int64_t tuples = state.range(0);
  SyntheticSource source(tuples, static_cast<int>(state.range(1)),
                         /*seed=*/42);
  int64_t batch = 0;
  for (auto _ : state) {
    for (int task = 0; task < kTasks; ++task) {
      benchmark::DoNotOptimize(source.NextBatch(batch, task).data());
    }
    ++batch;
  }
  state.SetLabel(tuples == 1 ? "wide" : "fig6");
  state.SetItemsProcessed(state.iterations() * kTasks * tuples);
}
BENCHMARK(BM_SourceBatch)
    ->ArgNames({"tuples", "keys"})
    ->Args({2000, 1024})
    ->Args({1, 256});

void BM_OutputFidelity(benchmark::State& state) {
  constexpr size_t kFailedMids = 64;
  auto topo = ParseTopologySpec(
      "operator src 1536 rate=4\n"
      "operator mid 1536\n"
      "operator sink 1\n"
      "edge src mid one-to-one\n"
      "edge mid sink merge\n");
  PPA_CHECK_OK(topo.status());
  const std::vector<TaskId>& mids = topo->op(1).tasks;
  TaskSet failed(topo->num_tasks());
  for (size_t i = 0; i < kFailedMids; ++i) {
    failed.Add(mids[i * mids.size() / kFailedMids]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeOutputFidelity(*topo, failed));
    benchmark::DoNotOptimize(ComputeInternalCompleteness(*topo, failed));
  }
  state.SetItemsProcessed(state.iterations() * topo->num_tasks());
}
BENCHMARK(BM_OutputFidelity)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ppa

BENCHMARK_MAIN();
