// Per-layer wall-clock microbenchmarks (report-only, google-benchmark).
//
// BM_GatherRunBatch times the task data path of one batch: routing every
// upstream batch of a merge edge into the consumer's input vector (the
// job scheduler's gather) and TaskRuntime::RunBatch's ordering and
// duplicate elimination. The consumer's operator drops its input, so the
// operator's own work is excluded. Shapes:
//   fig6 — 2 producers x 2000 tuples (an O1 task of the Fig. 6 workload);
//   wide — 1536 producers x 1 tuple (the scale_cluster 4096-node sink).
//
//   ./build/bench/layers --benchmark_min_time=0.05

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "engine/operator.h"
#include "engine/router.h"
#include "engine/task_runtime.h"
#include "topology/topology.h"

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
      t.key = "k" + std::to_string(i % 512);
      t.value = i;
      t.producer = topo.op(src).tasks[static_cast<size_t>(p)];
      upstream[static_cast<size_t>(p)].tuples.push_back(std::move(t));
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
    runtime.RunBatch(b, std::move(inputs), /*emit_downstream=*/false);
  }
  state.SetItemsProcessed(state.iterations() * producers *
                          tuples_per_producer);
}
BENCHMARK(BM_GatherRunBatch)
    ->ArgNames({"producers", "tuples"})
    ->Args({2, 2000})
    ->Args({1536, 1});

}  // namespace
}  // namespace ppa

BENCHMARK_MAIN();
