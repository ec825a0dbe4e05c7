#ifndef PPA_FT_CHECKPOINT_H_
#define PPA_FT_CHECKPOINT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "obs/metrics.h"
#include "topology/types.h"

namespace ppa {

/// One task checkpoint held on the standby nodes (Sec. II-B): the task's
/// serialized computation state plus output buffer, the batch frontier it
/// represents, and accounting metadata.
struct TaskCheckpoint {
  TaskId task = kInvalidTaskId;
  /// The task's next_batch at snapshot time: the checkpoint covers all
  /// batches < `next_batch`.
  int64_t next_batch = 0;
  std::string blob;
  /// Number of tuples in the operator state (full checkpoints) or carried
  /// by the delta (drives load-time modeling).
  int64_t state_tuples = 0;
  /// False: full (base) checkpoint; true: incremental delta on top of the
  /// preceding chain element (the delta-checkpoint optimization of Hwang
  /// et al., cited in Sec. VII).
  bool is_delta = false;
};

/// The standby nodes' checkpoint storage. Each task holds a *chain*: one
/// base (full) checkpoint optionally followed by incremental deltas, in
/// order. Recovery restores the base and applies each delta.
class CheckpointStore {
 public:
  /// Stores a full checkpoint, replacing the task's whole chain.
  void Put(TaskCheckpoint checkpoint);

  /// Appends a delta to the task's chain; fails if no base exists or the
  /// delta regresses the covered batch.
  Status PutDelta(TaskCheckpoint checkpoint);

  /// Latest chain element of `task` (base or delta), or nullptr.
  [[nodiscard]] const TaskCheckpoint* Latest(TaskId task) const;

  /// The task's full chain (base first), or nullptr if none.
  [[nodiscard]] const std::vector<TaskCheckpoint>* Chain(TaskId task) const;

  /// Number of deltas stacked on the base (0 = base only / none).
  [[nodiscard]] int64_t ChainDeltas(TaskId task) const;

  /// Total state tuples a recovery must load: base + every delta.
  [[nodiscard]] int64_t ChainStateTuples(TaskId task) const;

  /// The batch covered by `task`'s latest chain element: its recovery must
  /// replay batches >= this value. 0 if no checkpoint exists (replay from
  /// the beginning).
  [[nodiscard]] int64_t CoveredBatch(TaskId task) const;

  /// Records a *skipped* (thinned) checkpoint under approximate fault
  /// tolerance (DESIGN.md §17): no blob is persisted, but upstream
  /// buffers may be trimmed as if the task had checkpointed at
  /// `next_batch`. The frontier is monotone and is superseded once a
  /// persisted chain element covers it.
  void NoteSkipped(TaskId task, int64_t next_batch);

  /// The thinned coverage frontier of `task`: the highest next_batch a
  /// skipped checkpoint certified. 0 when the task never skipped.
  [[nodiscard]] int64_t SkippedFrontier(TaskId task) const;

  /// The batch upstream buffers may trim to for `task`:
  /// max(CoveredBatch, SkippedFrontier). Under exact recovery this
  /// equals CoveredBatch; under approximate recovery the gap
  /// [CoveredBatch, TrimBatch) is exactly what a failure forfeits.
  [[nodiscard]] int64_t TrimBatch(TaskId task) const;

  /// Number of tasks with at least one checkpoint.
  size_t size() const { return chains_.size(); }

  /// Total serialized bytes held on the standby nodes (all chains).
  /// O(1): maintained incrementally by Put/PutDelta, so per-checkpoint
  /// gauge updates stay cheap at thousands of tasks.
  int64_t TotalBlobBytes() const { return total_bytes_; }

  /// Drops everything (used between experiment repetitions).
  void Clear() {
    chains_.clear();
    skipped_frontier_.clear();
    total_bytes_ = 0;
    obs::Set(store_bytes_gauge_, 0.0);
  }

  /// Publishes "checkpoint.bytes" (per-checkpoint blob size histogram),
  /// the "checkpoint.full"/"checkpoint.delta"/"checkpoint.skipped"
  /// counters, the "checkpoint.store_blob_bytes" gauge (TotalBlobBytes
  /// after every Put/PutDelta/Clear), and the "checkpoint.chain_deltas"
  /// histogram (deltas a chain accumulated before a full checkpoint
  /// rebased it; skipped checkpoints are not chain elements and never
  /// inflate it) to `registry` (nullptr detaches).
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  std::map<TaskId, std::vector<TaskCheckpoint>> chains_;
  /// Thinned coverage per task (NoteSkipped); kept outside the chains so
  /// chain length, state tuples, and byte accounting stay blob-exact.
  std::map<TaskId, int64_t> skipped_frontier_;
  /// Sum of blob sizes over all chains (incremental TotalBlobBytes).
  int64_t total_bytes_ = 0;
  obs::Histogram* bytes_histogram_ = nullptr;
  obs::Histogram* chain_deltas_histogram_ = nullptr;
  obs::Counter* full_counter_ = nullptr;
  obs::Counter* delta_counter_ = nullptr;
  obs::Counter* skipped_counter_ = nullptr;
  obs::Gauge* store_bytes_gauge_ = nullptr;
};

}  // namespace ppa

#endif  // PPA_FT_CHECKPOINT_H_
