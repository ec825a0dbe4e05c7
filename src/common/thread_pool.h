#ifndef PPA_COMMON_THREAD_POOL_H_
#define PPA_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace ppa {

/// A small fixed-size work-stealing thread pool. Each worker owns a deque:
/// it pops its own tasks newest-first (LIFO keeps caches warm) and steals
/// oldest-first from siblings when its deque runs dry; external
/// submissions are sharded round-robin across the deques.
///
/// Scheduling order is deliberately unspecified — determinism is the
/// *caller's* contract, kept by keying results to submission indices and
/// deriving per-task RNG streams from those indices (DeriveSeed), never
/// from execution order. exp::ParallelRunner packages that pattern.
///
/// Destruction drains every task that was queued before the destructor
/// ran, then joins the workers; submitting concurrently with destruction
/// is not supported.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Safe from any thread, including workers (a task may
  /// submit follow-up tasks while the pool is live).
  void Submit(std::function<void()> fn) PPA_EXCLUDES(mu_);

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
  /// One worker's deque; `mu` guards only the deque so stealing never
  /// contends with the pool-wide bookkeeping lock.
  struct Worker {
    Mutex mu;
    std::deque<std::function<void()>> tasks PPA_GUARDED_BY(mu);
  };

  /// Pops (own back) or steals (sibling front) one task and runs it.
  bool RunOneTask(size_t self) PPA_EXCLUDES(mu_);
  void WorkerLoop(size_t self) PPA_EXCLUDES(mu_);

  // Sized in the constructor before any worker starts; immutable after.
  std::vector<std::unique_ptr<Worker>> workers_;
  // Joined only by the destructor, after every worker has exited.
  std::vector<std::thread> threads_;

  // Pool-wide bookkeeping: count of queued-but-unclaimed tasks and the
  // stop flag, with the condition variable idle workers sleep on.
  Mutex mu_;
  CondVar cv_;
  int64_t queued_ PPA_GUARDED_BY(mu_) = 0;
  size_t next_shard_ PPA_GUARDED_BY(mu_) = 0;
  bool stop_ PPA_GUARDED_BY(mu_) = false;
};

}  // namespace ppa

#endif  // PPA_COMMON_THREAD_POOL_H_
