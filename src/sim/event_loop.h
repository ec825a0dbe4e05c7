#ifndef PPA_SIM_EVENT_LOOP_H_
#define PPA_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/sim_time.h"
#include "obs/metrics.h"

namespace ppa {

/// Deterministic discrete-event simulator. Events fire in (time, insertion
/// order): two events scheduled for the same instant run in the order they
/// were scheduled, so simulations are exactly reproducible. This replaces
/// the paper's wall-clock EC2 cluster (see DESIGN.md Sec. 3.1).
class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time; advances only while running events.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (clamped to now()); returns an
  /// event id usable with Cancel().
  uint64_t Schedule(TimePoint at, std::function<void()> fn);

  /// Schedules `fn` after `delay` (negative delays clamp to zero).
  uint64_t ScheduleAfter(Duration delay, std::function<void()> fn);

  /// Cancels a pending event; returns false if it already ran or never
  /// existed.
  [[nodiscard]] bool Cancel(uint64_t event_id);

  /// Runs events until the queue is empty.
  void RunUntilIdle();

  /// Runs events with firing time <= deadline, then sets now() to
  /// `deadline` (even if the queue drained earlier).
  void RunUntil(TimePoint deadline);

  /// Number of events executed so far.
  int64_t events_processed() const { return events_processed_; }

  /// Number of events still pending (scheduled, not yet run or
  /// cancelled).
  size_t pending() const { return live_.size(); }

  /// Publishes "sim.events_processed", "sim.queue_depth",
  /// "sim.events_cancelled" (Cancel() calls that hit a live event), and
  /// "sim.queue_occupancy" (a histogram of the pending-event count
  /// sampled at each executed event — the loop's load profile over the
  /// run, where the gauge only keeps min/max/last) to `registry`
  /// (nullptr detaches). Recording never feeds back into scheduling, so
  /// attaching metrics cannot change a simulation.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  struct Event {
    TimePoint at;
    uint64_t id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.id > b.id;
    }
  };

  bool RunOne(TimePoint deadline);

  TimePoint now_ = TimePoint::Zero();
  uint64_t next_id_ = 1;
  int64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  /// Ids scheduled but not yet run or cancelled. Distinguishes "already
  /// ran" from "pending" so Cancel() cannot double-count.
  std::unordered_set<uint64_t> live_;
  /// Cancelled ids whose queue entries are lazily skipped when popped.
  std::unordered_set<uint64_t> cancelled_;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* queue_occupancy_ = nullptr;
};

}  // namespace ppa

#endif  // PPA_SIM_EVENT_LOOP_H_
