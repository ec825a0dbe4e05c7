#ifndef PPA_BACKEND_THREADED_BACKEND_H_
#define PPA_BACKEND_THREADED_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "backend/execution_backend.h"
#include "backend/sim_backend.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace ppa {
namespace backend {

/// Real-thread execution backend: the simulator's drive loop on the
/// driving thread, plus `num_shards - 1` helper threads that do nothing
/// but run blocks of ParallelFor (DESIGN.md §16).
///
/// ## Parity with the simulator
///
/// Every callback runs in SimBackend's loop, on the thread inside
/// RunUntil/RunUntilIdle, in the sim's (firing time, schedule sequence)
/// order; the queue, now() and the loop counters are SimBackend's own.
/// The only concurrency is inside one callback: the indices of a
/// ParallelFor, whose contract (each index writes only state it owns, no
/// schedule, cancel or drive) makes the result independent of which
/// thread ran which index. So a run's output is byte-identical to the sim.
///
/// ## Level fork-join
///
/// ParallelFor() called from a callback publishes one fork. The driving
/// thread starts claiming blocks of about n/16 indices at once and never
/// waits for a helper to start; helpers (woken if asleep) claim the rest
/// from the same index. The driving thread returns once no block is left
/// unclaimed and every helper has left the fork. A helper that has just
/// helped spins for kForkSpinSeconds waiting for the next fork before it
/// sleeps again, so consecutive levels of one job do not each pay a
/// wake-up. Only the driving thread forks, so at most one fork is open.
///
/// ## Lifecycle
///
/// Between drives no callback and no block runs, so job state (sink
/// records, metrics) may be read from the driving thread then. Stop()
/// drops the pending timers, as SimBackend::Stop does; the destructor
/// wakes and joins the helpers.
class ThreadedBackend final : public SimBackend {
 public:
  /// `options.time_scale` must be 0: virtual time always free-runs.
  explicit ThreadedBackend(const ThreadedBackendOptions& options = {});
  ~ThreadedBackend() override;

  BackendKind kind() const override { return BackendKind::kThreads; }

 private:
  /// How long a helper that has just helped a fork waits, spinning, for
  /// the next one before it sleeps.
  static constexpr double kForkSpinSeconds = 200e-6;

  /// A fork of n indices is claimed in blocks of max(1, n / 16) indices:
  /// about 16 claims balance uneven tasks without a claim per index.
  static constexpr size_t kClaimsPerFork = 16;

  /// One open ParallelFor, on the driving thread's stack.
  struct Fork {
    Fork(const std::function<void(size_t)>* fn, size_t n, uint64_t epoch)
        : fn(fn), n(n), block(std::max<size_t>(1, n / kClaimsPerFork)),
          epoch(epoch) {}
    const std::function<void(size_t)>* const fn;
    const size_t n;
    /// Indices per claim.
    const size_t block;
    /// Distinguishes this fork from earlier ones at the same address.
    const uint64_t epoch;
    /// First unclaimed index.
    std::atomic<size_t> next{0};
    /// Helpers that joined and have not left; the driving thread returns
    /// only once this is zero.
    std::atomic<int> helpers{0};
  };

  /// Runs `fn` over [0, n) with the helpers.
  void RunFork(size_t n, const std::function<void(size_t)>& fn) override
      PPA_EXCLUDES(fork_mu_);
  /// Claims and runs blocks of `fork` until none is left.
  static void RunBlocks(Fork* fork);
  /// Joins the open fork if it is newer than `*last_epoch`, runs blocks of
  /// it, and records its epoch; false when none was open.
  bool HelpFork(uint64_t* last_epoch) PPA_EXCLUDES(fork_mu_);
  /// Helps forks until none has opened for kForkSpinSeconds.
  void SpinForForks(uint64_t* last_epoch) PPA_EXCLUDES(fork_mu_);
  /// One helper: sleeps until a fork opens, then helps and spins, until
  /// the destructor.
  void HelperLoop() PPA_EXCLUDES(fork_mu_);

  /// Guards fork_: a helper joins, and the driving thread retracts, under
  /// it, so no helper can reach a fork after it was retracted.
  Mutex fork_mu_;
  /// Wakes sleeping helpers: a fork opened, or the destructor runs.
  CondVar fork_cv_;
  Fork* fork_ PPA_GUARDED_BY(fork_mu_) = nullptr;
  /// Epoch of the last fork opened.
  uint64_t fork_epoch_ PPA_GUARDED_BY(fork_mu_) = 0;
  /// Helpers blocked in fork_cv_.
  int sleepers_ PPA_GUARDED_BY(fork_mu_) = 0;
  bool stopping_ PPA_GUARDED_BY(fork_mu_) = false;
  /// Epoch of the open fork, 0 when none is open: the lock-free hint
  /// spinning helpers poll before taking fork_mu_. Written under fork_mu_
  /// only.
  std::atomic<uint64_t> open_fork_{0};
  /// The helper threads; null when num_shards is 1.
  std::unique_ptr<ThreadPool> helpers_;
};

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_THREADED_BACKEND_H_
