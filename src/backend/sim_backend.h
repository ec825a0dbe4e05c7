#ifndef PPA_BACKEND_SIM_BACKEND_H_
#define PPA_BACKEND_SIM_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "backend/execution_backend.h"
#include "common/sim_time.h"
#include "sim/event_loop.h"

namespace ppa {
namespace backend {

/// The deterministic backend: a 1:1 adapter over sim::EventLoop. Every
/// call forwards unchanged, so a job driven through SimBackend produces
/// byte-identical output to one driven on a raw EventLoop — that identity
/// is itself a tested invariant (tests/backend_test.cc) because it is
/// what makes this backend the parity oracle for all others.
///
/// Strands are bookkeeping only: the simulator is single-threaded, and
/// the (time, insertion) order the EventLoop already enforces is exactly
/// the per-strand order the interface promises.
class SimBackend final : public ExecutionBackend {
 public:
  /// Owns a fresh EventLoop.
  SimBackend();

  /// Wraps an external loop the caller keeps owning (lets tests and
  /// transitional call sites share one loop between old and new APIs).
  explicit SimBackend(EventLoop* loop);

  ~SimBackend() override;

  BackendKind kind() const override { return BackendKind::kSim; }
  TimePoint now() const override { return loop_->now(); }
  uint64_t NewStrand() override { return next_strand_++; }

  uint64_t ScheduleAfterOn(uint64_t strand, Duration delay,
                           std::function<void()> fn) override {
    (void)strand;
    return loop_->ScheduleAfter(delay, std::move(fn));
  }

  [[nodiscard]] bool Cancel(uint64_t id) override {
    return loop_->Cancel(id);
  }

  void RunUntil(TimePoint deadline) override { loop_->RunUntil(deadline); }
  void RunUntilIdle() override { loop_->RunUntilIdle(); }
  void Stop() override {}  // nothing runs between drives; drop nothing

  int64_t events_processed() const override {
    return loop_->events_processed();
  }
  size_t pending() const override { return loop_->pending(); }

  void AttachMetrics(obs::MetricsRegistry* registry) override {
    loop_->AttachMetrics(registry);
  }

  /// The wrapped loop (tests drive it directly to prove the adapter adds
  /// nothing).
  EventLoop* loop() { return loop_; }

 private:
  std::unique_ptr<EventLoop> owned_;  // null when wrapping an external loop
  EventLoop* loop_;
  uint64_t next_strand_ = 1;  // strand 0 always exists
};

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_SIM_BACKEND_H_
