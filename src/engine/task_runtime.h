#ifndef PPA_ENGINE_TASK_RUNTIME_H_
#define PPA_ENGINE_TASK_RUNTIME_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "engine/operator.h"
#include "engine/tuple.h"
#include "obs/metrics.h"
#include "topology/topology.h"

namespace ppa {

/// Scheduler-provided context for one RunBatch call: the batch's
/// source-ingest lineage gathered from the upstream outputs. The default
/// context keeps direct engine users (tests, shadow re-execution) working
/// without lineage.
struct BatchRunContext {
  /// Earliest source-ingest time over the contributing upstream batches
  /// (the tick time itself for sources).
  TimePoint ingest_at = TimePoint::Zero();
  /// Task hops from the source (max over upstream batches, plus one).
  int32_t hops = 1;
};

/// Runtime instance of one task (a primary copy or an active replica):
/// operator state, duplicate-elimination bookkeeping, the replayable
/// output buffer, and processing counters. Gathering/routing of tuples
/// between tasks is the job scheduler's responsibility; a TaskRuntime only
/// consumes pre-gathered batches and appends to its own output buffer.
class TaskRuntime {
 public:
  /// Exactly one of `op` / `source` must be set (source tasks have no
  /// operator function).
  TaskRuntime(const Topology* topology, TaskId id,
              std::unique_ptr<OperatorFunction> op,
              std::unique_ptr<SourceFunction> source);

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  TaskId id() const { return id_; }
  bool is_source() const { return source_ != nullptr; }
  const OperatorFunction* op() const { return op_.get(); }

  bool alive() const { return alive_; }
  void MarkFailed() {
    alive_ = false;
    ever_failed_ = true;
  }
  void MarkAlive() { alive_ = true; }
  /// True if the task failed at least once in its lifetime.
  bool ever_failed() const { return ever_failed_; }

  /// The next batch index this task will process.
  int64_t next_batch() const { return next_batch_; }

  /// Runs batch `batch` (must equal next_batch()). For sources, `inputs`
  /// is ignored and tuples come from the source function. Inputs already
  /// seen (per-producer sequence number) are dropped — the duplicate
  /// elimination of Sec. V-B. Appends the outputs to the output buffer,
  /// advances next_batch(), and returns the produced batch.
  /// When `emit_downstream` is false the outputs are produced (state still
  /// advances) but not retained in the buffer — used for state-rebuilding
  /// replay of batches whose downstream consumption already happened
  /// tentatively.
  /// `ctx` stamps the produced batch's latency lineage.
  const BatchOutput& RunBatch(int64_t batch, std::vector<Tuple> inputs,
                              bool emit_downstream = true,
                              const BatchRunContext& ctx = {});

  /// Output buffer (oldest batch first).
  const std::deque<BatchOutput>& output_buffer() const {
    return output_buffer_;
  }

  /// The buffered output of batch `batch`, or nullptr if absent (not yet
  /// produced, trimmed, or skipped during recovery).
  const BatchOutput* FindBatch(int64_t batch) const;

  /// Drops buffered batches with index <= `up_to_batch` (checkpoint-driven
  /// trimming, Sec. II-B).
  void TrimOutputBuffer(int64_t up_to_batch);

  /// Total tuples currently buffered.
  int64_t BufferedTuples() const;
  /// Tuples buffered in batches with index > `after_batch`.
  int64_t BufferedTuplesAfter(int64_t after_batch) const;

  /// Serializes the full task checkpoint: next batch, dedup map, operator
  /// state, and output buffer (Sec. II-B: "computation state and output
  /// buffer"). Also resets the delta baseline.
  StatusOr<std::string> Snapshot();

  /// Restores a checkpoint taken with Snapshot().
  Status Restore(const std::string& checkpoint);

  /// True if this task can produce incremental checkpoints (its operator
  /// supports delta snapshots; sources cannot — their state is trivial).
  bool SupportsDeltaSnapshots() const {
    return op_ != nullptr && op_->SupportsDeltaSnapshots();
  }

  /// An incremental checkpoint: everything that changed since the last
  /// Snapshot()/SnapshotDelta() call.
  struct DeltaSnapshot {
    std::string blob;
    /// State tuples carried by the delta (cost accounting).
    int64_t state_tuples = 0;
  };
  StatusOr<DeltaSnapshot> SnapshotDelta();

  /// Applies a delta on top of the state restored from the immediately
  /// preceding Snapshot()/ApplyDelta() in the chain.
  Status ApplyDelta(const std::string& delta);

  /// Forgets all state and restarts at batch `next_batch` (Storm-style
  /// recovery from scratch).
  void Reset(int64_t next_batch);

  /// Skips forward to `next_batch` without touching state (used when a
  /// recovered task rejoins at the live frontier).
  void FastForward(int64_t next_batch);

  /// Number of tuples held in operator state (drives checkpoint size).
  int64_t StateSizeTuples() const {
    return op_ != nullptr ? op_->StateSizeTuples() : 0;
  }

  /// Cumulative number of input tuples processed (cost accounting).
  int64_t processed_tuples() const { return processed_tuples_; }
  /// Cumulative number of tuples emitted.
  int64_t emitted_tuples() const { return emitted_tuples_; }

  /// Per-producer highest sequence number accepted (the progress vector of
  /// Sec. VI, keyed by upstream task).
  const std::map<TaskId, uint64_t>& progress_vector() const {
    return progress_;
  }

  /// Registers shared counters bumped on every RunBatch (input tuples
  /// consumed and batches executed). Either may be nullptr; the job wires
  /// primaries, replicas, and shadow runtimes to different counters.
  void AttachMetrics(obs::Counter* tuples_counter,
                     obs::Counter* batches_counter) {
    tuples_counter_ = tuples_counter;
    batches_counter_ = batches_counter;
  }

 private:
  const Topology* topology_;
  TaskId id_;
  std::unique_ptr<OperatorFunction> op_;
  std::unique_ptr<SourceFunction> source_;

  bool alive_ = true;
  bool ever_failed_ = false;
  int64_t next_batch_ = 0;
  /// next_batch_ at the last Snapshot()/SnapshotDelta() (delta baseline).
  int64_t snapshot_next_batch_ = 0;
  int64_t processed_tuples_ = 0;
  int64_t emitted_tuples_ = 0;
  std::map<TaskId, uint64_t> progress_;
  std::deque<BatchOutput> output_buffer_;
  /// Scratch slot for the return value of RunBatch when emit_downstream is
  /// false.
  BatchOutput scratch_;
  obs::Counter* tuples_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
};

}  // namespace ppa

#endif  // PPA_ENGINE_TASK_RUNTIME_H_
