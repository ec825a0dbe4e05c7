#ifndef PPA_BACKEND_SIM_BACKEND_H_
#define PPA_BACKEND_SIM_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "backend/execution_backend.h"
#include "backend/timer_queue.h"
#include "common/parallel_for.h"
#include "common/sim_time.h"
#include "obs/metrics.h"

namespace ppa {
namespace backend {

/// The deterministic discrete-event simulator that replaces the paper's
/// wall-clock EC2 cluster (DESIGN.md §3.1), and the parity oracle for
/// every other backend (§16). Callbacks run one at a time on the driving
/// thread, the one inside RunUntil/RunUntilIdle, in TimerQueue order,
/// (firing time, schedule sequence), so a run is exactly reproducible.
///
/// Its drive loop is the only one in the project: ThreadedBackend runs
/// the same loop and only changes what ParallelFor does inside it
/// (RunFork). The queue has no lock; the ParallelFor contract keeps blocks
/// off it, and debug builds check that.
class SimBackend : public ExecutionBackend, private ForkRunner {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }
  /// Virtual time; advances only while running events (and to the
  /// deadline at the end of RunUntil).
  TimePoint now() const override { return now_; }

  /// The first argument is ignored (see ExecutionBackend).
  uint64_t ScheduleAfterOn(uint64_t, Duration delay,
                           std::function<void()> fn) override;

  [[nodiscard]] bool Cancel(uint64_t id) override;

  void RunUntil(TimePoint deadline) override;
  void RunUntilIdle() override;
  /// Drops every pending timer without running it.
  void Stop() override { queue_.Clear(); }

  int64_t events_processed() const override { return events_processed_; }
  size_t pending() const override { return queue_.size(); }

  /// Publishes "sim.events_processed", "sim.queue_depth",
  /// "sim.events_cancelled" (Cancel() calls that hit a live event), and
  /// "sim.queue_occupancy" (a histogram of the pending-event count sampled
  /// at each executed event: the load profile over the run, where the
  /// gauge only keeps min/max/last).
  void AttachMetrics(obs::MetricsRegistry* registry) override;

 protected:
  /// Runs `fn` over [0, n) for a ParallelFor called from one of this
  /// backend's callbacks, with the calling thread already marked as
  /// inside a block. Here a plain loop in index order.
  void RunFork(size_t n, const std::function<void(size_t)>& fn) override;

 private:
  /// Runs timers in order until none is due by `deadline`; leaves now()
  /// at the last one run. The driving thread's ParallelFor calls reach
  /// RunFork() meanwhile: Drive installs this backend as the thread's fork
  /// runner.
  void Drive(TimePoint deadline);

  TimerQueue queue_;
  TimePoint now_ = TimePoint::Zero();
  int64_t events_processed_ = 0;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* cancelled_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Histogram* queue_occupancy_ = nullptr;
};

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_SIM_BACKEND_H_
