#ifndef PPA_COMMON_THREAD_POOL_H_
#define PPA_COMMON_THREAD_POOL_H_

#include <functional>
#include <thread>
#include <vector>

namespace ppa {

/// A fixed set of threads: thread i runs `body(i)` once, and the
/// destructor joins them all. The one place the project starts threads
/// (the no-raw-thread lint rule, DESIGN.md §14); what the threads share,
/// and how they split work, is the body's business.
///
/// Scheduling is unspecified — determinism is the *caller's* contract,
/// kept by keying results to indices and deriving per-index RNG streams
/// from them (DeriveSeed), never from which thread ran what.
/// exp::ParallelRunner packages that pattern.
class ThreadPool {
 public:
  /// Starts max(1, num_threads) threads; thread i runs body(i).
  ThreadPool(int num_threads, std::function<void(int)> body);

  /// Joins the threads: returns once every body has returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads.
  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Hardware concurrency, at least 1 — the natural `--jobs 0` expansion.
  static int DefaultParallelism();

  /// One step of a busy-wait: tells the CPU the caller is spinning (or
  /// yields where there is no such hint).
  static void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }

 private:
  // Shared by every thread; immutable while they run.
  const std::function<void(int)> body_;
  std::vector<std::thread> threads_;
};

}  // namespace ppa

#endif  // PPA_COMMON_THREAD_POOL_H_
