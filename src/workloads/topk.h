#ifndef PPA_WORKLOADS_TOPK_H_
#define PPA_WORKLOADS_TOPK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status_or.h"
#include "engine/operator.h"
#include "runtime/streaming_job.h"
#include "topology/topology.h"

namespace ppa {

/// Keeps the latest value observed per key (with a freshness window) and
/// emits the top `k` keys by value every batch. Used for the partial and
/// global top-k stages of Q1.
class TopKOperator : public OperatorFunction {
 public:
  TopKOperator(int k, int64_t freshness_batches);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  struct Entry {
    int64_t value = 0;
    int64_t last_batch = 0;
  };

  int k_;
  int64_t freshness_batches_;
  std::map<std::string, Entry, std::less<>> latest_;
};

/// Synthetic stand-in for the WorldCup'98 access log (see DESIGN.md
/// Sec. 3.2): a fixed URL population with Zipfian popularity, partitioned
/// by server id (= source task). Deterministic per (batch, task). Keys are
/// copied from the shared "url" table of the population (NumberedKeys).
class WorldCupSource : public SourceFunction {
 public:
  struct Options {
    int64_t tuples_per_batch_per_task = 1000;
    int url_population = 2000;
    double zipf_s = 0.8;
    uint64_t seed = 1998;
    /// Non-stationary per-server load (the real trace's servers ramp with
    /// the match schedule): each task's batch volume is modulated by
    /// 1 + amplitude * sin(2*pi * (batch/period + task phase)).
    double rate_wave_amplitude = 0.0;
    int64_t rate_wave_period_batches = 60;
  };

  explicit WorldCupSource(const Options& options);

  std::vector<Tuple> NextBatch(int64_t batch_index, int task_index) override;

 private:
  Options options_;
  ZipfGenerator zipf_;
  const TupleKey* keys_;
};

/// Q1 (Sec. VI-B): hierarchical top-100 aggregation over the access log.
/// src(8) --full--> count(8) --full--> merge(4) --merge--> top(1).
struct TopKWorkload {
  Topology topo;
  OperatorId source = kInvalidOperatorId;
  OperatorId count = kInvalidOperatorId;
  OperatorId merge = kInvalidOperatorId;
  OperatorId top = kInvalidOperatorId;
  WorldCupSource::Options source_options;
  int64_t count_window_batches = 30;
  int k = 100;
};

/// Parallelism of the Q1 stages; the defaults match the evaluation, the
/// reduced preset keeps the optimal DP planner tractable (its complexity is
/// exponential in the MC-tree count, Sec. IV-A).
struct TopKParallelism {
  int source = 8;
  int count = 8;
  int merge = 4;

  static TopKParallelism Reduced() { return TopKParallelism{4, 4, 2}; }
};

/// Builds the Q1 hierarchical top-k topology over the WorldCup-like log
/// plus its operator bindings (Sec. VI-B).
StatusOr<TopKWorkload> MakeTopKWorkload(
    const WorldCupSource::Options& source_options = {},
    int64_t count_window_batches = 30, int k = 100,
    const TopKParallelism& parallelism = {});

/// Binds the workload's sources and operators onto `job`.
Status BindTopKWorkload(const TopKWorkload& workload, StreamingJob* job);

}  // namespace ppa

#endif  // PPA_WORKLOADS_TOPK_H_
