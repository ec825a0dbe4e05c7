#include "sim/event_loop.h"

#include <utility>

#include "common/logging.h"

namespace ppa {

uint64_t EventLoop::Schedule(TimePoint at, std::function<void()> fn) {
  PPA_CHECK(fn != nullptr);
  if (at < now_) {
    at = now_;
  }
  const uint64_t id = next_id_++;
  queue_.push(Event{at, id, std::move(fn)});
  live_.insert(id);
  obs::Set(queue_depth_gauge_, static_cast<double>(live_.size()));
  return id;
}

uint64_t EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  if (delay < Duration::Zero()) {
    delay = Duration::Zero();
  }
  return Schedule(now_ + delay, std::move(fn));
}

bool EventLoop::Cancel(uint64_t event_id) {
  // Only live ids are cancellable: an id that already ran, was already
  // cancelled, or never existed returns false and leaves pending()
  // untouched.
  if (live_.erase(event_id) == 0) {
    return false;
  }
  // Lazily cancelled: the queue entry is skipped when popped.
  cancelled_.insert(event_id);
  obs::Add(cancelled_counter_);
  obs::Set(queue_depth_gauge_, static_cast<double>(live_.size()));
  return true;
}

void EventLoop::AttachMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    events_counter_ = nullptr;
    cancelled_counter_ = nullptr;
    queue_depth_gauge_ = nullptr;
    queue_occupancy_ = nullptr;
    return;
  }
  events_counter_ = registry->counter("sim.events_processed");
  cancelled_counter_ = registry->counter("sim.events_cancelled");
  queue_depth_gauge_ = registry->gauge("sim.queue_depth");
  queue_occupancy_ = registry->histogram("sim.queue_occupancy");
}

bool EventLoop::RunOne(TimePoint deadline) {
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    if (top.at > deadline) {
      return false;
    }
    if (cancelled_.erase(top.id) > 0) {
      queue_.pop();
      continue;
    }
    Event event = top;
    queue_.pop();
    live_.erase(event.id);
    now_ = event.at;
    ++events_processed_;
    obs::Add(events_counter_);
    obs::Set(queue_depth_gauge_, static_cast<double>(live_.size()));
    obs::Observe(queue_occupancy_, static_cast<double>(live_.size()));
    event.fn();
    return true;
  }
  return false;
}

void EventLoop::RunUntilIdle() {
  while (RunOne(TimePoint::Max())) {
  }
}

void EventLoop::RunUntil(TimePoint deadline) {
  while (RunOne(deadline)) {
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace ppa
