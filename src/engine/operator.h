#ifndef PPA_ENGINE_OPERATOR_H_
#define PPA_ENGINE_OPERATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "engine/tuple.h"

namespace ppa {

class TaskRuntime;

/// Per-batch execution context handed to an operator function. Emission
/// goes into a staging vector; the engine assigns sequence numbers and
/// routes tuples afterwards.
class BatchContext {
 public:
  BatchContext(int64_t batch_index, int task_index, int parallelism)
      : batch_index_(batch_index),
        task_index_(task_index),
        parallelism_(parallelism) {}

  int64_t batch_index() const { return batch_index_; }
  /// Index of the executing task within its operator.
  int task_index() const { return task_index_; }
  /// Parallelism of the executing operator.
  int parallelism() const { return parallelism_; }

  /// Emits an output tuple built in place from `key` and `value`; the
  /// engine fills in provenance (batch, seq, producer).
  void Emit(std::string_view key, int64_t value) {
    Tuple& t = emitted_.emplace_back();
    t.key = key;
    t.value = value;
  }

  /// Makes room for `n` more emitted tuples, so an operator that knows
  /// its output count emits without regrowing the staging vector.
  void Reserve(size_t n) { emitted_.reserve(emitted_.size() + n); }

  std::vector<Tuple>& emitted() { return emitted_; }

  /// Asks for this batch's input vector to be moved into `*into` once
  /// ProcessBatch returns, so an operator that keeps its input whole (a
  /// window slice) takes it without a copy. `*into` is not filled before
  /// then, and must stay valid until then; the inputs stay readable for
  /// the whole ProcessBatch call, also to a decorator around the operator.
  /// Returns false, and changes nothing, on a context that
  /// TaskRuntime::RunBatch did not build (a direct ProcessBatch call): the
  /// operator copies instead.
  bool AdoptInputs(std::vector<Tuple>* into) {
    if (!inputs_adoptable_) {
      return false;
    }
    adopt_into_ = into;
    return true;
  }

 private:
  friend class TaskRuntime;

  int64_t batch_index_;
  int task_index_;
  int parallelism_;
  std::vector<Tuple> emitted_;
  /// Set by TaskRuntime::RunBatch, which owns the inputs and hands them to
  /// `adopt_into_` after ProcessBatch.
  bool inputs_adoptable_ = false;
  std::vector<Tuple>* adopt_into_ = nullptr;
};

/// A user-defined operator (Sec. II-A): a deterministic function from
/// (state, ordered batch of input tuples) to (state, output tuples).
/// Determinism is required by the fault-tolerance protocol: a restored or
/// actively replicated task must reproduce the primary's outputs
/// byte-for-byte given the same input order (Sec. V-B).
class OperatorFunction {
 public:
  virtual ~OperatorFunction() = default;

  /// Processes one batch. `inputs` is sorted by (producer, seq), the same
  /// deterministic round-robin order on every replica/restore. An operator
  /// that keeps the inputs takes them through ctx->AdoptInputs().
  virtual void ProcessBatch(BatchContext* ctx,
                            const std::vector<Tuple>& inputs) = 0;

  /// Serializes the operator's computation state.
  virtual StatusOr<std::string> SnapshotState() = 0;

  /// Restores the state produced by SnapshotState().
  virtual Status RestoreState(const std::string& snapshot) = 0;

  /// True if the operator supports incremental (delta) snapshots — the
  /// delta-checkpoint optimization of Hwang et al. (ICDE'07), cited by the
  /// paper as compatible with PPA. Operators that return true must
  /// implement SnapshotDelta()/ApplyDelta().
  virtual bool SupportsDeltaSnapshots() const { return false; }

  /// Serializes only the state *changes* since the last SnapshotState() or
  /// SnapshotDelta() call, and reports how many state tuples the delta
  /// carries via `delta_tuples` (for cost accounting).
  virtual StatusOr<std::string> SnapshotDelta(int64_t* delta_tuples) {
    (void)delta_tuples;
    return Unimplemented("operator does not support delta snapshots");
  }

  /// Applies a delta on top of the state restored from the snapshot (or
  /// delta) that immediately preceded it.
  virtual Status ApplyDelta(const std::string& delta) {
    (void)delta;
    return Unimplemented("operator does not support delta snapshots");
  }

  /// Clears all state (fresh start, used by Storm-style source replay).
  virtual void Reset() = 0;

  /// Approximate number of tuples held in state; drives checkpoint size
  /// and load-time modeling.
  virtual int64_t StateSizeTuples() const = 0;
};

/// A deterministic source: batch `b` of task `i` must always contain the
/// same tuples, so the Storm-style source-replay recovery can regenerate
/// any past batch (Sec. VI-A).
class SourceFunction {
 public:
  virtual ~SourceFunction() = default;

  /// Produces the raw tuples of batch `batch_index` for source task
  /// `task_index` (key/value only; the engine fills provenance).
  virtual std::vector<Tuple> NextBatch(int64_t batch_index,
                                       int task_index) = 0;
};

using OperatorFactory = std::function<std::unique_ptr<OperatorFunction>()>;
using SourceFactory = std::function<std::unique_ptr<SourceFunction>()>;

}  // namespace ppa

#endif  // PPA_ENGINE_OPERATOR_H_
