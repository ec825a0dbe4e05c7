#include "backend/sim_backend.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ppa {
namespace backend {
namespace {

// Debug builds: the queue has no lock, so a schedule, cancel or drive
// from a ParallelFor block (which the contract forbids) would race with
// the driving thread. Fatal, naming the call.
void CheckOutsideBlock([[maybe_unused]] const char* call) {
#ifndef NDEBUG
  PPA_CHECK(!InParallelBlock())
      << call << " called inside a ParallelFor block";
#endif
}

}  // namespace

void SimBackend::RunFork(size_t n, const std::function<void(size_t)>& fn) {
  for (size_t i = 0; i < n; ++i) {
    fn(i);
  }
}

uint64_t SimBackend::ScheduleAfterOn(uint64_t, Duration delay,
                                     std::function<void()> fn) {
  CheckOutsideBlock("ScheduleAfterOn");
  if (delay < Duration::Zero()) {
    delay = Duration::Zero();
  }
  const uint64_t id = queue_.Push(now_ + delay, std::move(fn));
  obs::Set(queue_depth_gauge_, static_cast<double>(queue_.size()));
  return id;
}

bool SimBackend::Cancel(uint64_t id) {
  CheckOutsideBlock("Cancel");
  if (!queue_.Cancel(id)) {
    return false;
  }
  obs::Add(cancelled_counter_);
  obs::Set(queue_depth_gauge_, static_cast<double>(queue_.size()));
  return true;
}

void SimBackend::RunUntil(TimePoint deadline) {
  CheckOutsideBlock("RunUntil");
  Drive(deadline);
  now_ = std::max(now_, deadline);
}

void SimBackend::RunUntilIdle() {
  CheckOutsideBlock("RunUntilIdle");
  Drive(TimePoint::Max());
}

void SimBackend::Drive(TimePoint deadline) {
  ForkRunner* const outer = SetForkRunner(this);
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
  SetForkRunner(outer);
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
