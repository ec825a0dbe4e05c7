#ifndef PPA_BACKEND_THREADED_BACKEND_H_
#define PPA_BACKEND_THREADED_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "backend/bounded_queue.h"
#include "backend/execution_backend.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace ppa {
namespace obs {
class Counter;
}  // namespace obs

namespace backend {

/// Real-thread execution backend: a sharded worker pool (common/
/// thread_pool) fed through bounded MPSC mailboxes, with virtual-time
/// timers dispatched by a pump.
///
/// ## How parity with the simulator is kept (DESIGN.md §16)
///
/// Timers live in one ordered set keyed (firing time, schedule sequence)
/// — the exact order the deterministic EventLoop fires them. The pump
/// dispatches a timer of strand S only when
///
///   (a) its firing time is within the current drive's deadline, and
///   (b) S has no callback in flight, OR the timer fires at the same
///       instant as the one(s) already in flight for S.
///
/// (b) is sound because a callback running at time t can only schedule
/// at >= t with a larger sequence number, so nothing the in-flight work
/// produces can belong *before* an equal-time timer already dispatched;
/// equal-time timers of one strand land in the same FIFO mailbox in
/// sequence order. Each strand therefore executes exactly the
/// (time, sequence) order the simulator would use, while distinct strands
/// run in parallel across shards. Cross-strand interleaving is
/// unspecified — which is why a StreamingJob occupies a single strand.
///
/// ## Backpressure
///
/// Mailboxes are bounded (ThreadedBackendOptions::mailbox_capacity); the
/// pump blocks pushing into a full shard until its drain catches up, so a
/// slow shard throttles dispatch instead of growing an unbounded queue.
///
/// ## Pacing
///
/// With time_scale == 0 virtual time free-runs (a drive finishes as fast
/// as the machine allows). With time_scale > 0 the pump holds each timer
/// until `time_scale` wall-seconds per simulated second have elapsed
/// since the first dispatch, giving soft real-time playback.
///
/// ## Lifecycle
///
/// RunUntil / RunUntilIdle block the driver thread until the drive's work
/// has fully drained, so between drives no callback is executing and the
/// mailboxes are empty — that quiescence is what makes it safe to read
/// job state (sink records, metrics) from the driver between drives, and
/// to destroy the backend. Stop() (or the destructor) drops undispatched
/// timers and discards still-queued mailbox items without running them,
/// mirroring how destroying an EventLoop drops its queue; the backend is
/// unusable afterwards.
class ThreadedBackend final : public ExecutionBackend {
 public:
  explicit ThreadedBackend(const ThreadedBackendOptions& options = {});
  ~ThreadedBackend() override;

  BackendKind kind() const override { return BackendKind::kThreads; }
  TimePoint now() const override PPA_EXCLUDES(mu_);
  uint64_t NewStrand() override PPA_EXCLUDES(mu_);

  uint64_t ScheduleAfterOn(uint64_t strand, Duration delay,
                           std::function<void()> fn) override
      PPA_EXCLUDES(mu_);

  [[nodiscard]] bool Cancel(uint64_t id) override PPA_EXCLUDES(mu_);

  void RunUntil(TimePoint deadline) override PPA_EXCLUDES(mu_);
  void RunUntilIdle() override PPA_EXCLUDES(mu_);
  void Stop() override PPA_EXCLUDES(mu_);

  int64_t events_processed() const override PPA_EXCLUDES(mu_);
  size_t pending() const override PPA_EXCLUDES(mu_);

  void AttachMetrics(obs::MetricsRegistry* registry) override
      PPA_EXCLUDES(mu_);

  /// Worker shards (mailbox lanes) in use.
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  /// Global timer order: (firing time, schedule sequence) ascending —
  /// identical to EventLoop's priority order, see class comment.
  struct TimerKey {
    int64_t at_us = 0;
    uint64_t seq = 0;
    bool operator<(const TimerKey& o) const {
      return at_us != o.at_us ? at_us < o.at_us : seq < o.seq;
    }
  };
  struct TimerEntry {
    uint64_t strand = 0;
    std::function<void()> fn;
  };
  /// One dispatched callback travelling through a shard mailbox.
  struct WorkItem {
    uint64_t strand = 0;
    TimePoint at;
    std::function<void()> fn;
  };
  /// Dispatch bookkeeping for one strand (see gating rule (b) above).
  struct StrandState {
    /// Callbacks dispatched but not yet completed.
    int outstanding = 0;
    /// Firing time of the most recently dispatched callback.
    TimePoint ts;
    /// Undispatched timers belonging to this strand.
    size_t timers = 0;
  };

  /// The pump: runs as a long-lived pool task, dispatching timers into
  /// shard mailboxes until Stop().
  void PumpLoop() PPA_EXCLUDES(mu_);
  /// Single consumer of one shard's mailbox (started via the drain-claim
  /// handshake, see bounded_queue.h).
  void DrainShard(size_t shard) PPA_EXCLUDES(mu_);
  /// First timer satisfying the dispatch gate, or timers_.end(). The scan
  /// inspects at most one timer per strand (later same-strand timers can
  /// never be dispatchable when the first is not).
  std::map<TimerKey, TimerEntry>::iterator FirstDispatchable()
      PPA_REQUIRES(mu_);
  /// Marks one completed callback and wakes the pump / driver.
  void FinishItem(uint64_t strand) PPA_EXCLUDES(mu_);

  const double time_scale_;
  /// Immutable after construction (the queues themselves synchronize
  /// internally); needs no guard.
  std::vector<std::unique_ptr<BoundedMpscQueue<WorkItem>>> shards_;
  /// Immutable after construction; ThreadPool is internally synchronized.
  std::unique_ptr<ThreadPool> pool_;

  mutable Mutex mu_;
  /// Wakes the pump: new timer, completion, drive start, or stop.
  CondVar timer_cv_;
  /// Wakes the driver (RunUntil/Stop) and anyone waiting for quiescence.
  CondVar done_cv_;
  /// Undispatched timers in global (time, sequence) order.
  std::map<TimerKey, TimerEntry> timers_ PPA_GUARDED_BY(mu_);
  /// Live (cancellable) timer ids -> firing time, for O(log n) Cancel.
  std::map<uint64_t, TimePoint> live_ PPA_GUARDED_BY(mu_);
  /// Per-strand dispatch state; entries are created on first use.
  std::map<uint64_t, StrandState> strands_ PPA_GUARDED_BY(mu_);
  /// Number of strands with at least one undispatched timer (lets the
  /// dispatch scan stop early).
  size_t pending_strands_ PPA_GUARDED_BY(mu_) = 0;
  /// Next schedule sequence / timer id (EventLoop also starts at 1).
  uint64_t next_seq_ PPA_GUARDED_BY(mu_) = 1;
  /// Next strand id NewStrand() mints (0 is the implicit default strand).
  uint64_t next_strand_ PPA_GUARDED_BY(mu_) = 1;
  /// Callbacks dispatched into mailboxes and not yet completed.
  int64_t in_flight_ PPA_GUARDED_BY(mu_) = 0;
  /// Completed callback count (events_processed()).
  int64_t events_processed_ PPA_GUARDED_BY(mu_) = 0;
  /// High-water mark of dispatched/driven virtual time — now() outside
  /// callbacks.
  TimePoint frontier_ PPA_GUARDED_BY(mu_);
  /// True while a RunUntil/RunUntilIdle drive is in progress; the pump
  /// dispatches nothing between drives (EventLoop parity).
  bool driving_ PPA_GUARDED_BY(mu_) = false;
  /// The active drive's dispatch ceiling (gate (a) in the class comment).
  TimePoint drive_deadline_ PPA_GUARDED_BY(mu_);
  bool stopped_ PPA_GUARDED_BY(mu_) = false;
  /// Set by the pump task on exit; Stop() waits for it before returning
  /// so the destructor never races the pump.
  bool pump_exited_ PPA_GUARDED_BY(mu_) = false;
  /// Wall/virtual anchor for pacing; latched at the first paced dispatch.
  bool anchored_ PPA_GUARDED_BY(mu_) = false;
  double anchor_wall_ PPA_GUARDED_BY(mu_) = 0.0;
  TimePoint anchor_sim_ PPA_GUARDED_BY(mu_);
  /// "backend.events_processed" when metrics are attached (increments are
  /// serialized by mu_; obs counters are not atomic).
  obs::Counter* events_counter_ PPA_GUARDED_BY(mu_) = nullptr;
};

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_THREADED_BACKEND_H_
