#ifndef PPA_BACKEND_THREADED_BACKEND_H_
#define PPA_BACKEND_THREADED_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "backend/execution_backend.h"
#include "backend/timer_queue.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace ppa {
namespace obs {
class Counter;
}  // namespace obs

namespace backend {

/// Real-thread execution backend: N worker threads (common/thread_pool)
/// that pull virtual-time timers straight from one TimerQueue.
///
/// ## How parity with the simulator is kept (DESIGN.md §16)
///
/// Timers live in one TimerQueue, ordered (firing time, schedule sequence)
/// — the same queue and order SimBackend fires them in. A worker
/// takes the first timer of strand S only when
///
///   (a) its firing time is within the current drive's deadline, and
///   (b) S has no callback running.
///
/// (b) serializes each strand: a callback running at time t can only
/// schedule at >= t with a larger sequence number, so the next timer of S
/// in queue order is exactly the one the simulator would fire next. Each
/// strand therefore executes the simulator's (time, sequence) order while
/// distinct strands run in parallel on distinct workers. Cross-strand
/// interleaving is unspecified — which is why a StreamingJob occupies a
/// single strand.
///
/// At most one callback runs per strand and at most N run at once; the
/// TimerQueue is the only queue.
///
/// ## Wake-ups
///
/// The worker that finishes a callback picks the next timer itself, so a
/// one-strand job hands nothing between threads from event to event.
/// Scheduling wakes one idle worker only when the timer's strand is idle
/// and the timer is due within the current drive; a worker that takes a
/// timer wakes one more only if another strand is still dispatchable.
///
/// ## Pacing
///
/// With time_scale == 0 virtual time free-runs (a drive finishes as fast
/// as the machine allows). With time_scale > 0 a worker holds each timer
/// until `time_scale` wall-seconds per simulated second have elapsed
/// since the first dispatch, giving soft real-time playback.
///
/// ## Lifecycle
///
/// RunUntil / RunUntilIdle block the driver thread until the drive's work
/// has fully drained, so between drives no callback is executing — that
/// quiescence is what makes it safe to read job state (sink records,
/// metrics) from that thread between drives, and to destroy the backend.
/// Stop() drops undispatched timers without running them, as
/// SimBackend::Stop does; a callback already running
/// finishes, and the destructor joins the workers. The backend is
/// unusable after Stop().
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

 private:
  /// Dispatch bookkeeping for one strand (gate (b) above).
  struct StrandState {
    /// A callback of this strand is running.
    bool busy = false;
    /// Undispatched timers belonging to this strand.
    size_t timers = 0;
  };

  /// One worker: takes the first dispatchable timer, runs it unlocked,
  /// and books its completion, until Stop().
  void WorkerLoop() PPA_EXCLUDES(mu_);
  /// Opens a drive to `deadline`, wakes the workers and blocks until no
  /// callback runs and no timer is due by `deadline` (or Stop()).
  void Drive(TimePoint deadline) PPA_REQUIRES(mu_);
  /// First timer satisfying the dispatch gate, or timers_.end(). O(1)
  /// when no idle strand has a timer (every one-strand job between its
  /// own callbacks).
  TimerQueue::iterator FirstDispatchable() PPA_REQUIRES(mu_);

  const double time_scale_;
  /// Immutable after construction; ThreadPool is internally synchronized.
  std::unique_ptr<ThreadPool> pool_;

  mutable Mutex mu_;
  /// Wakes idle workers: a dispatchable timer, drive start, or stop.
  CondVar work_cv_;
  /// Wakes the thread blocked in RunUntil/RunUntilIdle once the drive is
  /// drained.
  CondVar done_cv_;
  /// Undispatched timers in global (time, sequence) order; their
  /// sequence numbers are the timer ids.
  TimerQueue timers_ PPA_GUARDED_BY(mu_);
  /// Per-strand dispatch state; entries are created on first use.
  std::map<uint64_t, StrandState> strands_ PPA_GUARDED_BY(mu_);
  /// Strands that are not busy and have at least one timer (lets the
  /// dispatch scan return at once when there are none).
  size_t ready_strands_ PPA_GUARDED_BY(mu_) = 0;
  /// Next strand id NewStrand() mints (0 is the implicit default strand).
  uint64_t next_strand_ PPA_GUARDED_BY(mu_) = 1;
  /// Callbacks taken by a worker and not yet completed.
  int64_t in_flight_ PPA_GUARDED_BY(mu_) = 0;
  /// Completed callback count (events_processed()).
  int64_t events_processed_ PPA_GUARDED_BY(mu_) = 0;
  /// High-water mark of dispatched/driven virtual time — now() outside
  /// callbacks.
  TimePoint frontier_ PPA_GUARDED_BY(mu_);
  /// True while a RunUntil/RunUntilIdle drive is in progress; workers
  /// dispatch nothing between drives (SimBackend parity).
  bool driving_ PPA_GUARDED_BY(mu_) = false;
  /// The active drive's dispatch ceiling (gate (a) in the class comment).
  TimePoint drive_deadline_ PPA_GUARDED_BY(mu_);
  bool stopped_ PPA_GUARDED_BY(mu_) = false;
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
