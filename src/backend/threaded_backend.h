#ifndef PPA_BACKEND_THREADED_BACKEND_H_
#define PPA_BACKEND_THREADED_BACKEND_H_

#include <algorithm>
#include <atomic>
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
/// ## Level fork-join
///
/// ParallelFor() called from a callback publishes one fork. The calling
/// worker starts claiming blocks of about n/16 indices at once and never
/// waits for a helper to start; idle workers (woken if asleep) claim the
/// rest from the same index. The caller returns once no block is left
/// unclaimed and every helper has left the fork. A worker that has just
/// helped spins for kForkSpinSeconds waiting for the next fork before it
/// goes back to the timer loop, so consecutive levels of one job do not
/// each pay a wake-up. Only one fork is open at a time; a second strand
/// that forks meanwhile runs its loop alone.
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
  friend void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// How long a worker that has just helped a fork waits, spinning, for
  /// the next one before it returns to the timer loop.
  static constexpr double kForkSpinSeconds = 200e-6;

  /// A fork of n indices is claimed in blocks of max(1, n / 16) indices:
  /// about 16 claims balance uneven tasks without a claim per index.
  static constexpr size_t kClaimsPerFork = 16;

  /// One open ParallelFor, on the forking worker's stack.
  struct Fork {
    Fork(const std::function<void(size_t)>* fn, size_t n, int64_t now_us,
         uint64_t epoch)
        : fn(fn), n(n), block(std::max<size_t>(1, n / kClaimsPerFork)),
          now_us(now_us), epoch(epoch) {}
    const std::function<void(size_t)>* const fn;
    const size_t n;
    /// Indices per claim.
    const size_t block;
    /// The forking callback's virtual time: now() on every helper.
    const int64_t now_us;
    /// Distinguishes this fork from earlier ones at the same address.
    const uint64_t epoch;
    /// First unclaimed index.
    std::atomic<size_t> next{0};
    /// Helpers that joined and have not left; the forking worker returns
    /// only once this is zero.
    std::atomic<int> helpers{0};
  };

  /// Runs `fn` over [0, n) with the idle workers (ParallelFor on a
  /// worker running a callback).
  void RunFork(size_t n, const std::function<void(size_t)>& fn)
      PPA_EXCLUDES(mu_, fork_mu_);
  /// Claims and runs blocks of `fork` until none is left.
  static void RunBlocks(Fork* fork);
  /// Joins the open fork if it is newer than `*last_epoch`, runs blocks of
  /// it, and records its epoch; false when none was open.
  bool HelpFork(uint64_t* last_epoch) PPA_EXCLUDES(mu_, fork_mu_);
  /// Helps forks until none has opened for kForkSpinSeconds.
  void SpinForForks(uint64_t* last_epoch) PPA_EXCLUDES(mu_, fork_mu_);

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

  /// Guards fork_: a helper joins, and the forking worker retracts, under
  /// it, so no helper can reach a fork after it was retracted.
  Mutex fork_mu_;
  Fork* fork_ PPA_GUARDED_BY(fork_mu_) = nullptr;
  /// Epoch of the open fork, 0 when none is open: the lock-free hint idle
  /// and spinning workers poll before taking fork_mu_. Written under
  /// fork_mu_ only.
  std::atomic<uint64_t> open_fork_{0};
  /// Epoch of the last fork opened; written under fork_mu_ only.
  uint64_t fork_epoch_ PPA_GUARDED_BY(fork_mu_) = 0;
  /// Workers blocked in work_cv_. Incremented under mu_ before a worker
  /// reads open_fork_ and waits, so a forking worker that reads it after
  /// opening a fork either sees the sleeper or is seen by it (atomic, read
  /// without mu_).
  std::atomic<int> sleepers_{0};
};

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_THREADED_BACKEND_H_
