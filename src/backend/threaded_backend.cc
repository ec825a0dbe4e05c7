#include "backend/threaded_backend.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/wall_clock.h"
#include "obs/metrics.h"

namespace ppa {
namespace backend {
namespace {

// Virtual "now" for the callback currently executing on this worker, so
// now()/ScheduleAfterOn inside a callback see the callback's firing time
// exactly as they would inside the simulator. Keyed by backend so a
// stray read against a different backend falls back to its frontier.
thread_local ThreadedBackend* tls_backend = nullptr;
thread_local int64_t tls_now_us = 0;
// Set while this thread runs blocks of a fork, so a nested ParallelFor
// runs inline.
thread_local bool tls_in_fork = false;

}  // namespace

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (tls_backend != nullptr && !tls_in_fork && n > 1) {
    tls_backend->RunFork(n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

ThreadedBackend::ThreadedBackend(const ThreadedBackendOptions& options)
    : time_scale_(options.time_scale) {
  const int workers = options.num_shards > 0
                          ? options.num_shards
                          : std::max(1, ThreadPool::DefaultParallelism() - 1);
  pool_ = std::make_unique<ThreadPool>(workers);
  for (int i = 0; i < workers; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

ThreadedBackend::~ThreadedBackend() {
  Stop();
  pool_.reset();  // the workers return on stop; join them
}

TimePoint ThreadedBackend::now() const {
  if (tls_backend == this) {
    return TimePoint::FromMicros(tls_now_us);
  }
  MutexLock lock(&mu_);
  return frontier_;
}

uint64_t ThreadedBackend::NewStrand() {
  MutexLock lock(&mu_);
  return next_strand_++;
}

uint64_t ThreadedBackend::ScheduleAfterOn(uint64_t strand, Duration delay,
                                          std::function<void()> fn) {
  if (delay < Duration::Zero()) {
    delay = Duration::Zero();  // clamp, matching SimBackend
  }
  MutexLock lock(&mu_);
  TimePoint base =
      tls_backend == this ? TimePoint::FromMicros(tls_now_us) : frontier_;
  TimePoint at = base + delay;
  uint64_t id = timers_.Push(at, strand, std::move(fn));
  StrandState& s = strands_[strand];
  if (s.timers++ == 0 && !s.busy) {
    ++ready_strands_;
  }
  // A busy strand's own worker picks this timer up when its callback
  // returns, so only an idle strand's due timer needs another worker.
  if (!s.busy && driving_ && at <= drive_deadline_) {
    work_cv_.NotifyOne();
  }
  return id;
}

bool ThreadedBackend::Cancel(uint64_t id) {
  MutexLock lock(&mu_);
  std::optional<uint64_t> strand = timers_.Cancel(id);
  if (!strand) {
    return false;  // already ran, already cancelled, or never existed
  }
  StrandState& s = strands_[*strand];
  if (--s.timers == 0 && !s.busy) {
    --ready_strands_;
  }
  return true;
}

TimerQueue::iterator ThreadedBackend::FirstDispatchable() {
  if (!driving_ || ready_strands_ == 0) {
    return timers_.end();
  }
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->first.at > drive_deadline_) {
      break;  // ordered by time: nothing further qualifies
    }
    if (!strands_[it->second.strand].busy) {
      return it;
    }
  }
  return timers_.end();
}

void ThreadedBackend::WorkerLoop() {
  std::function<void()> fn;
  uint64_t strand = 0;
  bool ran = false;
  uint64_t last_fork = 0;
  for (;;) {
    TimePoint at;
    bool help = false;
    {
      MutexLock lock(&mu_);
      if (ran) {
        StrandState& s = strands_[strand];
        s.busy = false;
        if (s.timers > 0) {
          ++ready_strands_;
        }
        --in_flight_;
        ++events_processed_;
        obs::Add(events_counter_);
        ran = false;
      }
      TimerQueue::iterator it;
      for (;;) {
        if (stopped_) {
          return;
        }
        it = FirstDispatchable();
        if (it == timers_.end()) {
          if (in_flight_ == 0) {
            done_cv_.NotifyAll();  // no strand busy, nothing due: drained
          }
          // Count as a sleeper before looking for a fork: a worker opening
          // one after this read sees the count and wakes us.
          sleepers_.fetch_add(1);
          const uint64_t open = open_fork_.load();
          if (open != 0 && open != last_fork) {
            sleepers_.fetch_sub(1);
            help = true;
            break;
          }
          work_cv_.Wait(&mu_);
          sleepers_.fetch_sub(1);
          continue;
        }
        if (time_scale_ > 0.0) {
          const TimePoint due = it->first.at;
          if (!anchored_) {
            anchored_ = true;
            anchor_wall_ = WallClockSeconds();
            anchor_sim_ = due;
          }
          const double target =
              anchor_wall_ + (due - anchor_sim_).seconds() * time_scale_;
          const double wall = WallClockSeconds();
          if (wall < target) {
            // Sleep at most the remaining gap; an earlier timer may be
            // inserted meanwhile, so re-scan after every wakeup.
            (void)work_cv_.WaitFor(&mu_, target - wall);
            continue;
          }
        }
        break;
      }
      if (!help) {
        strand = it->second.strand;
        at = it->first.at;
        fn = timers_.Take(it);
        StrandState& s = strands_[strand];
        --s.timers;
        s.busy = true;
        --ready_strands_;
        ++in_flight_;
        if (frontier_ < at) {
          frontier_ = at;
        }
        if (FirstDispatchable() != timers_.end()) {
          work_cv_.NotifyOne();  // another strand can run beside this one
        }
      }
    }
    if (help) {
      SpinForForks(&last_fork);  // unlocked: blocks run job code
      continue;
    }
    tls_backend = this;
    tls_now_us = at.micros();
    fn();
    tls_backend = nullptr;
    fn = nullptr;  // release captures before booking completion
    ran = true;
  }
}

void ThreadedBackend::RunFork(size_t n,
                              const std::function<void(size_t)>& fn) {
  std::optional<Fork> fork;
  {
    MutexLock lock(&fork_mu_);
    if (fork_ == nullptr) {
      fork.emplace(&fn, n, tls_now_us, ++fork_epoch_);
      fork_ = &*fork;
      open_fork_.store(fork->epoch);
    }
  }
  if (!fork) {
    // Another strand's fork is open: run this one alone.
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  if (sleepers_.load() > 0) {
    MutexLock lock(&mu_);
    work_cv_.NotifyAll();
  }
  tls_in_fork = true;
  RunBlocks(&*fork);
  tls_in_fork = false;
  {
    MutexLock lock(&fork_mu_);
    fork_ = nullptr;
    open_fork_.store(0);
  }
  // Every block is claimed; wait for the helpers still running one.
  while (fork->helpers.load() != 0) {
    ThreadPool::SpinPause();
  }
}

void ThreadedBackend::RunBlocks(Fork* fork) {
  for (;;) {
    const size_t begin = fork->next.fetch_add(fork->block);
    if (begin >= fork->n) {
      return;
    }
    const size_t end = std::min(fork->n, begin + fork->block);
    for (size_t i = begin; i < end; ++i) {
      (*fork->fn)(i);
    }
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
  tls_backend = this;
  tls_now_us = fork->now_us;
  tls_in_fork = true;
  RunBlocks(fork);
  tls_in_fork = false;
  tls_backend = nullptr;
  fork->helpers.fetch_sub(1);  // last touch: the forking worker may return
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

void ThreadedBackend::Drive(TimePoint deadline) {
  driving_ = true;
  drive_deadline_ = deadline;
  work_cv_.NotifyAll();
  for (;;) {
    const bool due = !timers_.empty() && timers_.begin()->first.at <= deadline;
    if (stopped_ || (in_flight_ == 0 && !due)) {
      break;
    }
    done_cv_.Wait(&mu_);
  }
  driving_ = false;
}

void ThreadedBackend::RunUntil(TimePoint deadline) {
  MutexLock lock(&mu_);
  if (stopped_) {
    return;
  }
  Drive(deadline);
  if (frontier_ < deadline) {
    frontier_ = deadline;  // SimBackend::RunUntil advances now() likewise
  }
}

void ThreadedBackend::RunUntilIdle() {
  MutexLock lock(&mu_);
  if (stopped_) {
    return;
  }
  Drive(TimePoint::Max());
}

void ThreadedBackend::Stop() {
  MutexLock lock(&mu_);
  stopped_ = true;
  timers_.Clear();
  for (auto& [id, state] : strands_) {
    state.timers = 0;
  }
  ready_strands_ = 0;
  work_cv_.NotifyAll();
  done_cv_.NotifyAll();
}

int64_t ThreadedBackend::events_processed() const {
  MutexLock lock(&mu_);
  return events_processed_;
}

size_t ThreadedBackend::pending() const {
  MutexLock lock(&mu_);
  return timers_.size();
}

void ThreadedBackend::AttachMetrics(obs::MetricsRegistry* registry) {
  MutexLock lock(&mu_);
  events_counter_ =
      registry == nullptr ? nullptr
                          : registry->counter("backend.events_processed");
}

}  // namespace backend
}  // namespace ppa
