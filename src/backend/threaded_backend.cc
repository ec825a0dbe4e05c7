#include "backend/threaded_backend.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/wall_clock.h"

namespace ppa {
namespace backend {

ThreadedBackend::ThreadedBackend(const ThreadedBackendOptions& options) {
  PPA_CHECK(options.time_scale == 0.0)
      << "time_scale must be 0: virtual time always free-runs";
  const int threads = options.num_shards > 0
                          ? options.num_shards
                          : std::max(1, ThreadPool::DefaultParallelism() - 1);
  if (threads > 1) {
    helpers_ = std::make_unique<ThreadPool>(threads - 1,
                                            [this](int) { HelperLoop(); });
  }
}

ThreadedBackend::~ThreadedBackend() {
  {
    MutexLock lock(&fork_mu_);
    stopping_ = true;
    fork_cv_.NotifyAll();
  }
  helpers_.reset();  // the helpers return once stopping_; join them
}

void ThreadedBackend::RunFork(size_t n,
                              const std::function<void(size_t)>& fn) {
  if (helpers_ == nullptr) {
    SimBackend::RunFork(n, fn);
    return;
  }
  std::optional<Fork> fork;
  {
    MutexLock lock(&fork_mu_);
    fork.emplace(&fn, n, ++fork_epoch_);
    fork_ = &*fork;
    open_fork_.store(fork->epoch);
    if (sleepers_ > 0) {
      fork_cv_.NotifyAll();
    }
  }
  RunBlocks(&*fork);
  {
    MutexLock lock(&fork_mu_);
    fork_ = nullptr;
    open_fork_.store(0);
  }
  // Every index is claimed; wait for the helpers still running one.
  while (fork->helpers.load() != 0) {
    ThreadPool::SpinPause();
  }
}

void ThreadedBackend::RunBlocks(Fork* fork) {
  for (size_t i = fork->next.fetch_add(1); i < fork->n;
       i = fork->next.fetch_add(1)) {
    (*fork->fn)(i);
  }
}

bool ThreadedBackend::HelpFork(uint64_t* last_epoch) {
  Fork* fork = nullptr;
  {
    MutexLock lock(&fork_mu_);
    if (fork_ == nullptr || fork_->epoch == *last_epoch) {
      return false;
    }
    fork = fork_;
    fork->helpers.fetch_add(1);
  }
  *last_epoch = fork->epoch;
  RunBlocks(fork);
  fork->helpers.fetch_sub(1);  // last touch: the driving thread may return
  return true;
}

void ThreadedBackend::SpinForForks(uint64_t* last_epoch) {
  double idle_since = WallClockSeconds();
  for (;;) {
    const uint64_t open = open_fork_.load();
    if (open != 0 && open != *last_epoch && HelpFork(last_epoch)) {
      idle_since = WallClockSeconds();
      continue;
    }
    if (WallClockSeconds() - idle_since > kForkSpinSeconds) {
      return;
    }
    ThreadPool::SpinPause();
  }
}

void ThreadedBackend::HelperLoop() {
  // A helper runs nothing but ParallelFor indices.
  MarkInParallelBlock(true);
  uint64_t last_epoch = 0;
  for (;;) {
    {
      MutexLock lock(&fork_mu_);
      ++sleepers_;
      while (!stopping_ &&
             (fork_ == nullptr || fork_->epoch == last_epoch)) {
        fork_cv_.Wait(&fork_mu_);
      }
      --sleepers_;
      if (stopping_) {
        return;
      }
    }
    SpinForForks(&last_epoch);
  }
}

}  // namespace backend
}  // namespace ppa
