#include "backend/sim_backend.h"

#include <utility>

namespace ppa {
namespace backend {

uint64_t SimBackend::ScheduleAfterOn(uint64_t strand, Duration delay,
                                     std::function<void()> fn) {
  if (delay < Duration::Zero()) {
    delay = Duration::Zero();
  }
  const uint64_t id = queue_.Push(now_ + delay, strand, std::move(fn));
  obs::Set(queue_depth_gauge_, static_cast<double>(queue_.size()));
  return id;
}

bool SimBackend::Cancel(uint64_t id) {
  if (!queue_.Cancel(id)) {
    return false;
  }
  obs::Add(cancelled_counter_);
  obs::Set(queue_depth_gauge_, static_cast<double>(queue_.size()));
  return true;
}

void SimBackend::Drive(TimePoint deadline) {
  for (auto next = queue_.begin();
       next != queue_.end() && next->first.at <= deadline;
       next = queue_.begin()) {
    now_ = next->first.at;
    std::function<void()> fn = queue_.Take(next);
    ++events_processed_;
    obs::Add(events_counter_);
    const double depth = static_cast<double>(queue_.size());
    obs::Set(queue_depth_gauge_, depth);
    obs::Observe(queue_occupancy_, depth);
    fn();
  }
}

void SimBackend::AttachMetrics(obs::MetricsRegistry* registry) {
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

}  // namespace backend
}  // namespace ppa
