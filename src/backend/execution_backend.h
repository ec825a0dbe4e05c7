#ifndef PPA_BACKEND_EXECUTION_BACKEND_H_
#define PPA_BACKEND_EXECUTION_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/sim_time.h"
#include "common/status_or.h"

namespace ppa {
namespace obs {
class MetricsRegistry;
class SpanProfiler;
}  // namespace obs

namespace backend {

/// Which execution substrate runs a job's events. kSim is the
/// deterministic discrete-event simulator (the correctness oracle for
/// every other backend); kThreads executes the same schedule on a real
/// worker pool with bounded mailboxes (DESIGN.md §16).
enum class BackendKind {
  kSim,
  kThreads,
};

/// "sim" or "threads" — the spelling of the shared `--backend=` flag and
/// of the "backend" key stamped into BENCH_*.json reports.
[[nodiscard]] std::string BackendKindToString(BackendKind kind);

/// Parses the `--backend=` flag spelling; kInvalidArgument on anything
/// other than "sim" or "threads".
[[nodiscard]] StatusOr<BackendKind> ParseBackendKind(std::string_view text);

/// Tuning knobs for backend::ThreadedBackend; every field has a usable
/// default so `MakeBackend(BackendKind::kThreads)` just works.
struct ThreadedBackendOptions {
  /// Worker shards (mailbox lanes). <= 0 means "hardware parallelism".
  int num_shards = 0;
  /// Bounded per-shard mailbox depth; producers block when the mailbox is
  /// full (backpressure, DESIGN.md §16).
  size_t mailbox_capacity = 1024;
  /// 0 runs virtual time as fast as the machine allows; a positive value
  /// paces dispatch so one simulated second takes `time_scale` wall
  /// seconds (1.0 = real time).
  double time_scale = 0.0;
};

/// The seam between job logic and the machinery that runs it: everything
/// above this interface (runtime, engine, ft, exp, ...) schedules work
/// against virtual time and never names the simulator or a thread.
///
/// ## Strands
///
/// A strand is an ordered execution domain. Two callbacks on the same
/// strand never run concurrently and always execute in exactly the order
/// the deterministic simulator would run them — ascending (time, schedule
/// sequence). Distinct strands may run in parallel on backends that have
/// real threads; the sim runs everything on the caller's thread. Each
/// StreamingJob lives on one strand, which is what makes the sim a
/// byte-exact oracle for the threaded backend (the parity contract,
/// DESIGN.md §16). Strand 0 always exists; NewStrand() mints more.
///
/// Ordering across *different* strands is deliberately unspecified beyond
/// the RunUntil horizon, so code on strand A must not schedule onto
/// strand B and expect sim-identical interleaving.
///
/// ## Driving
///
/// RunUntil / RunUntilIdle are called from the owning (driver) thread
/// only, never from inside a scheduled callback. Schedule/Cancel/now()
/// are safe from callbacks on any strand.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend();

  ExecutionBackend() = default;
  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  /// Which substrate this is (stamped into reports; never branch job
  /// logic on it).
  virtual BackendKind kind() const = 0;

  /// Current virtual time. Inside a callback this is the callback's
  /// firing time (exactly as in the simulator); outside it is the
  /// high-water mark the backend has run to.
  virtual TimePoint now() const = 0;

  /// Mints a fresh strand id (see class comment). Thread-safe.
  virtual uint64_t NewStrand() = 0;

  /// Schedules `fn` on `strand`, `delay` after now() (negative delays
  /// clamp to zero, matching the simulator). Returns an id usable with
  /// Cancel(). Safe from any strand's callbacks and from the driver.
  virtual uint64_t ScheduleAfterOn(uint64_t strand, Duration delay,
                                   std::function<void()> fn) = 0;

  /// Cancels a pending callback; false if it already ran, was already
  /// cancelled, or never existed.
  [[nodiscard]] virtual bool Cancel(uint64_t id) = 0;

  /// Runs every callback with firing time <= deadline, then advances
  /// now() to `deadline`. Blocks the driver thread until the work is
  /// drained. Driver thread only.
  virtual void RunUntil(TimePoint deadline) = 0;

  /// Runs callbacks until none are pending. Driver thread only.
  virtual void RunUntilIdle() = 0;

  /// Stops accepting and dispatching work: pending timers are dropped,
  /// already-dispatched callbacks finish. Idempotent; implied by the
  /// destructor.
  virtual void Stop() = 0;

  /// Number of callbacks executed so far.
  virtual int64_t events_processed() const = 0;

  /// Number of callbacks scheduled but not yet dispatched or cancelled.
  virtual size_t pending() const = 0;

  /// Publishes backend counters to `registry` (nullptr detaches).
  /// Recording never feeds back into scheduling, so attaching metrics
  /// cannot change a run.
  virtual void AttachMetrics(obs::MetricsRegistry* registry) = 0;

  /// No-op, kept only so perfbench's TimedBackend override still compiles.
  virtual void AttachSpans(obs::SpanProfiler* /*spans*/) {}

  /// Schedules on strand 0 — the single-job convenience spelling.
  uint64_t ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAfterOn(0, delay, std::move(fn));
  }

  /// Schedules `fn` on `strand` at absolute virtual time `at` (clamped to
  /// now(), matching EventLoop::Schedule).
  uint64_t ScheduleAt(uint64_t strand, TimePoint at,
                      std::function<void()> fn) {
    return ScheduleAfterOn(strand, at - now(), std::move(fn));
  }

  /// Posts `fn` to `strand` "now": it runs at the current virtual time,
  /// after everything already scheduled for that instant. Identical
  /// semantics on every backend (it is a zero-delay schedule), which is
  /// what keeps cross-backend parity byte-exact.
  void Post(uint64_t strand, std::function<void()> fn) {
    (void)ScheduleAfterOn(strand, Duration::Zero(), std::move(fn));
  }
};

/// Builds a backend of the requested kind; `options` only affects
/// kThreads.
[[nodiscard]] std::unique_ptr<ExecutionBackend> MakeBackend(
    BackendKind kind, const ThreadedBackendOptions& options = {});

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_EXECUTION_BACKEND_H_
