#include "backend/threaded_backend.h"

#include <algorithm>
#include <set>
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
  int shards = options.num_shards > 0
                   ? options.num_shards
                   : std::max(1, ThreadPool::DefaultParallelism() - 1);
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<BoundedMpscQueue<WorkItem>>(
        options.mailbox_capacity));
  }
  // One thread per shard plus one the pump occupies for its lifetime.
  pool_ = std::make_unique<ThreadPool>(shards + 1);
  pool_->Submit([this] { PumpLoop(); });
}

ThreadedBackend::~ThreadedBackend() {
  Stop();
  pool_.reset();  // drains the drain tasks, then joins
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
    delay = Duration::Zero();  // clamp, matching EventLoop::ScheduleAfter
  }
  MutexLock lock(&mu_);
  TimePoint base =
      tls_backend == this ? TimePoint::FromMicros(tls_now_us) : frontier_;
  TimePoint at = base + delay;
  uint64_t seq = next_seq_++;
  timers_.emplace(TimerKey{at.micros(), seq},
                  TimerEntry{strand, std::move(fn)});
  live_.emplace(seq, at);
  if (strands_[strand].timers++ == 0) {
    ++pending_strands_;
  }
  timer_cv_.NotifyAll();
  return seq;
}

bool ThreadedBackend::Cancel(uint64_t id) {
  MutexLock lock(&mu_);
  auto live = live_.find(id);
  if (live == live_.end()) {
    return false;  // already ran, already cancelled, or never existed
  }
  auto timer = timers_.find(TimerKey{live->second.micros(), id});
  if (timer == timers_.end()) {
    return false;  // unreachable: live_ and timers_ move in lock step
  }
  if (--strands_[timer->second.strand].timers == 0) {
    --pending_strands_;
  }
  timers_.erase(timer);
  live_.erase(live);
  return true;
}

std::map<ThreadedBackend::TimerKey, ThreadedBackend::TimerEntry>::iterator
ThreadedBackend::FirstDispatchable() {
  if (!driving_) {
    return timers_.end();
  }
  std::set<uint64_t> gated;
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    TimePoint at = TimePoint::FromMicros(it->first.at_us);
    if (at > drive_deadline_) {
      return timers_.end();  // ordered by time: nothing further qualifies
    }
    uint64_t strand = it->second.strand;
    if (gated.count(strand) != 0) {
      continue;  // a later timer of a gated strand is never dispatchable
    }
    const StrandState& s = strands_[strand];
    if (s.outstanding == 0 || at == s.ts) {
      return it;
    }
    gated.insert(strand);
    if (gated.size() >= pending_strands_) {
      return timers_.end();  // every strand with timers is gated
    }
  }
  return timers_.end();
}

void ThreadedBackend::PumpLoop() {
  for (;;) {
    WorkItem item;
    size_t shard = 0;
    {
      MutexLock lock(&mu_);
      std::map<TimerKey, TimerEntry>::iterator it;
      for (;;) {
        if (stopped_) {
          pump_exited_ = true;
          done_cv_.NotifyAll();
          return;
        }
        it = FirstDispatchable();
        if (it == timers_.end()) {
          timer_cv_.Wait(&mu_);
          continue;
        }
        if (time_scale_ > 0.0) {
          if (!anchored_) {
            anchored_ = true;
            anchor_wall_ = WallClockSeconds();
            anchor_sim_ = TimePoint::FromMicros(it->first.at_us);
          }
          double target =
              anchor_wall_ +
              (TimePoint::FromMicros(it->first.at_us) - anchor_sim_)
                      .seconds() *
                  time_scale_;
          double wall = WallClockSeconds();
          if (wall < target) {
            // Sleep at most the remaining gap; an earlier timer may be
            // inserted meanwhile, so re-scan after every wakeup.
            (void)timer_cv_.WaitFor(&mu_, target - wall);
            continue;
          }
        }
        break;
      }
      item.strand = it->second.strand;
      item.at = TimePoint::FromMicros(it->first.at_us);
      item.fn = std::move(it->second.fn);
      live_.erase(it->first.seq);
      if (--strands_[item.strand].timers == 0) {
        --pending_strands_;
      }
      timers_.erase(it);
      StrandState& s = strands_[item.strand];
      ++s.outstanding;
      s.ts = item.at;
      ++in_flight_;
      if (frontier_ < item.at) {
        frontier_ = item.at;
      }
      shard = static_cast<size_t>(item.strand) % shards_.size();
    }
    // Outside the lock: a full mailbox blocks the pump here — that stall
    // is the backpressure contract (see class comment).
    uint64_t strand = item.strand;
    PushOutcome outcome = shards_[shard]->Push(std::move(item));
    if (outcome == PushOutcome::kClosed) {
      FinishItem(strand);  // stopping: undo the dispatch bookkeeping
      continue;
    }
    if (outcome == PushOutcome::kMustDrain) {
      pool_->Submit([this, shard] { DrainShard(shard); });
    }
  }
}

void ThreadedBackend::DrainShard(size_t shard) {
  WorkItem item;
  while (shards_[shard]->Pop(&item)) {
    tls_backend = this;
    tls_now_us = item.at.micros();
    item.fn();
    tls_backend = nullptr;
    item.fn = nullptr;  // release captures before signalling completion
    FinishItem(item.strand);
  }
}

void ThreadedBackend::FinishItem(uint64_t strand) {
  MutexLock lock(&mu_);
  --strands_[strand].outstanding;
  --in_flight_;
  ++events_processed_;
  if (events_counter_ != nullptr) {
    events_counter_->Increment();
  }
  timer_cv_.NotifyAll();
  done_cv_.NotifyAll();
}

void ThreadedBackend::RunUntil(TimePoint deadline) {
  MutexLock lock(&mu_);
  if (stopped_) {
    return;
  }
  driving_ = true;
  drive_deadline_ = deadline;
  timer_cv_.NotifyAll();
  for (;;) {
    bool work_left =
        in_flight_ > 0 ||
        (!timers_.empty() &&
         TimePoint::FromMicros(timers_.begin()->first.at_us) <= deadline);
    if (stopped_ || !work_left) {
      break;
    }
    done_cv_.Wait(&mu_);
  }
  driving_ = false;
  if (frontier_ < deadline) {
    frontier_ = deadline;  // EventLoop::RunUntil advances now() likewise
  }
}

void ThreadedBackend::RunUntilIdle() {
  MutexLock lock(&mu_);
  if (stopped_) {
    return;
  }
  driving_ = true;
  drive_deadline_ = TimePoint::Max();
  timer_cv_.NotifyAll();
  while (!stopped_ && (in_flight_ > 0 || !timers_.empty())) {
    done_cv_.Wait(&mu_);
  }
  driving_ = false;
}

void ThreadedBackend::Stop() {
  {
    MutexLock lock(&mu_);
    if (stopped_) {
      // Idempotent, but still wait out the pump for destructor safety.
      while (!pump_exited_) {
        done_cv_.Wait(&mu_);
      }
      return;
    }
    stopped_ = true;
    timers_.clear();
    live_.clear();
    for (auto& [strand, state] : strands_) {
      state.timers = 0;
    }
    pending_strands_ = 0;
    timer_cv_.NotifyAll();
    done_cv_.NotifyAll();
  }
  // Unblock a pump stuck pushing into a full mailbox and make the drains
  // discard queued items instead of running them.
  for (auto& shard : shards_) {
    shard->Close();
  }
  MutexLock lock(&mu_);
  while (!pump_exited_) {
    done_cv_.Wait(&mu_);
  }
}

int64_t ThreadedBackend::events_processed() const {
  MutexLock lock(&mu_);
  return events_processed_;
}

size_t ThreadedBackend::pending() const {
  MutexLock lock(&mu_);
  return live_.size();
}

void ThreadedBackend::AttachMetrics(obs::MetricsRegistry* registry) {
  MutexLock lock(&mu_);
  events_counter_ =
      registry == nullptr ? nullptr
                          : registry->counter("backend.events_processed");
}

}  // namespace backend
}  // namespace ppa
