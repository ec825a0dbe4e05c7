#ifndef PPA_ENGINE_OPERATORS_H_
#define PPA_ENGINE_OPERATORS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/operator.h"

namespace ppa {

/// Stateless forwarder; useful as a routing/repartitioning stage.
class PassThroughOperator : public OperatorFunction {
 public:
  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override {}
  int64_t StateSizeTuples() const override { return 0; }
};

/// Stateless filter that forwards a deterministic `selectivity` fraction of
/// its input, decided by a hash of (key, value) so replicas and recovered
/// instances agree tuple-by-tuple.
class SelectivityOperator : public OperatorFunction {
 public:
  explicit SelectivityOperator(double selectivity);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override {}
  int64_t StateSizeTuples() const override { return 0; }

 private:
  double selectivity_;
};

/// The synthetic sliding-window operator of the recovery-efficiency
/// experiments (Sec. VI-A): keeps every input tuple of the last
/// `window_batches` batches as its state, slides by one batch per batch,
/// and emits an aggregate for a `selectivity` fraction of its input. Its
/// state size therefore equals input-rate x window-interval, exactly the
/// paper's setup.
class SlidingWindowAggregateOperator : public OperatorFunction {
 public:
  SlidingWindowAggregateOperator(int64_t window_batches, double selectivity);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  bool SupportsDeltaSnapshots() const override { return true; }
  StatusOr<std::string> SnapshotDelta(int64_t* delta_tuples) override;
  Status ApplyDelta(const std::string& delta) override;
  void Reset() override;
  int64_t StateSizeTuples() const override { return window_tuples_; }

  int64_t window_batches() const { return window_batches_; }

 private:
  struct WindowSlice {
    int64_t batch = 0;
    std::vector<Tuple> tuples;
    /// The slice's value sum and encoded bytes (header included), taken
    /// when it was pushed, so Evict() reads no tuple.
    int64_t sum = 0;
    size_t bytes = 0;
  };

  /// With Evict() and Reset(), the only ways slices enter and leave
  /// window_; they keep the sum and the size counters exact. Appends the
  /// slice of `batch`, whose totals are taken from `tuples` in one walk,
  /// and returns its still-empty tuple vector for the caller to fill with
  /// `tuples` (by a move, an adoption or a copy).
  std::vector<Tuple>& PushSlice(int64_t batch,
                                const std::vector<Tuple>& tuples);
  void Evict(int64_t current_batch);

  int64_t window_batches_;
  double selectivity_;
  std::deque<WindowSlice> window_;
  /// Running sum of values in the window, maintained incrementally.
  int64_t window_sum_ = 0;
  /// Tuples in window_ and their encoded bytes (slice headers included),
  /// so SnapshotState() presizes its blob without walking the window.
  int64_t window_tuples_ = 0;
  size_t window_bytes_ = 0;
  /// Highest slice batch included in the last full or delta snapshot
  /// (-1: none) — the delta baseline.
  int64_t snapshot_marker_ = -1;
};

/// Per-key counter over a sliding window of batches; emits (key, count)
/// for every key touched in the batch. Building block of the Q1 top-k
/// pipeline.
class WindowedKeyCountOperator : public OperatorFunction {
 public:
  explicit WindowedKeyCountOperator(int64_t window_batches);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  /// Per-key counts, looked up by a tuple's key view.
  using KeyCounts = std::map<std::string, int64_t, std::less<>>;

  void Evict(int64_t current_batch);

  int64_t window_batches_;
  /// batch -> per-key counts added in that batch (needed for eviction).
  std::deque<std::pair<int64_t, KeyCounts>> slices_;
  KeyCounts counts_;
};

/// Symmetric windowed equi-join on the tuple key (the generic
/// correlated-input operator of Sec. II-A / III-A1): each input tuple is
/// classified as left or right by a caller-supplied predicate, probes the
/// opposite side's window for key matches, emits one tuple per match
/// (key, combine(left value, right value)), and is then inserted into its
/// own side's window. Tuples older than `window_batches` are evicted.
/// The classifier/combiner are construction-time configuration (like any
/// UDF code), so snapshots only carry the window contents.
class SymmetricWindowJoinOperator : public OperatorFunction {
 public:
  /// Returns true if the tuple belongs to the left stream.
  using Classifier = std::function<bool(const Tuple&)>;
  /// Combines a matched pair into the output value (default: sum).
  using Combiner = std::function<int64_t(int64_t, int64_t)>;

  SymmetricWindowJoinOperator(int64_t window_batches, Classifier is_left,
                              Combiner combine = nullptr);

  void ProcessBatch(BatchContext* ctx,
                    const std::vector<Tuple>& inputs) override;
  StatusOr<std::string> SnapshotState() override;
  Status RestoreState(const std::string& snapshot) override;
  void Reset() override;
  int64_t StateSizeTuples() const override;

 private:
  struct Entry {
    int64_t batch = 0;
    int64_t value = 0;
  };
  using Side = std::map<std::string, std::vector<Entry>, std::less<>>;

  void Evict(int64_t current_batch);
  static std::string SnapshotSide(const Side& side);
  static Status RestoreSide(const std::string& blob, Side* side);

  int64_t window_batches_;
  Classifier is_left_;
  Combiner combine_;
  Side left_;
  Side right_;
};

}  // namespace ppa

#endif  // PPA_ENGINE_OPERATORS_H_
