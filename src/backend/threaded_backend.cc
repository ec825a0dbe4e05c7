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
thread_local const void* tls_backend = nullptr;
thread_local int64_t tls_now_us = 0;

}  // namespace

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
  for (;;) {
    TimePoint at;
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
          work_cv_.Wait(&mu_);
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
    tls_backend = this;
    tls_now_us = at.micros();
    fn();
    tls_backend = nullptr;
    fn = nullptr;  // release captures before booking completion
    ran = true;
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
