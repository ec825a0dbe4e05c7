#ifndef PPA_FT_CHECKPOINT_H_
#define PPA_FT_CHECKPOINT_H_

#include <string>
#include <vector>

#include "common/status_or.h"
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

/// The standby nodes' checkpoint storage, indexed by task id (a task never
/// written reads as empty). Each task holds a *chain*: one base (full)
/// checkpoint optionally followed by incremental deltas, in order.
/// Recovery restores the base and applies each delta.
class CheckpointStore {
 public:
  /// Sized for tasks [0, num_tasks); a write to a later task grows it.
  explicit CheckpointStore(int num_tasks = 0)
      : tasks_(static_cast<size_t>(num_tasks)) {}

  /// Stores a full checkpoint, replacing the task's whole chain and
  /// clearing its RequireFull() mark.
  void Put(TaskCheckpoint checkpoint);

  /// Appends a delta to the task's chain; FailedPrecondition if no base
  /// exists or the task must rebase (RequireFull), InvalidArgument if the
  /// delta regresses the covered batch.
  Status PutDelta(TaskCheckpoint checkpoint);

  /// Marks `task`'s next checkpoint as full (a rebase): a promoted
  /// replica's delta baseline dates from its activation, so its delta
  /// could overlap what the chain already holds.
  void RequireFull(TaskId task);

  /// True if a delta may extend `task`'s chain: a base exists, it holds
  /// fewer than `max_chain` deltas, and no rebase is pending.
  [[nodiscard]] bool AcceptsDelta(TaskId task, int max_chain) const;

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

  /// The batch upstream buffers may trim to for `task`: the larger of
  /// CoveredBatch and the NoteSkipped frontier. Under exact recovery this
  /// equals CoveredBatch; under approximate recovery the gap
  /// [CoveredBatch, TrimBatch) is exactly what a failure forfeits.
  [[nodiscard]] int64_t TrimBatch(TaskId task) const;

  /// Total serialized bytes held on the standby nodes (all chains).
  /// O(1): maintained incrementally by Put/PutDelta, so per-checkpoint
  /// gauge updates stay cheap at thousands of tasks.
  int64_t TotalBlobBytes() const { return total_bytes_; }

 private:
  struct TaskEntry {
    std::vector<TaskCheckpoint> chain;
    /// Thinned coverage (NoteSkipped); kept outside the chain so chain
    /// length, state tuples, and byte accounting stay blob-exact.
    int64_t skipped_frontier = 0;
    /// The next checkpoint must be full (RequireFull).
    bool rebase = false;
  };

  /// The entry of `task`; an empty one if it was never written.
  const TaskEntry& At(TaskId task) const;
  /// The entry of `task`, growing the index to hold it.
  TaskEntry& Grow(TaskId task);

  std::vector<TaskEntry> tasks_;
  /// Sum of blob sizes over all chains (incremental TotalBlobBytes).
  int64_t total_bytes_ = 0;
};

}  // namespace ppa

#endif  // PPA_FT_CHECKPOINT_H_
