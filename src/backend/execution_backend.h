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
/// every other backend); kThreads runs the same drive loop and forks each
/// ParallelFor across helper threads (DESIGN.md §16).
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
  /// Threads that run job code: the driving thread plus `num_shards - 1`
  /// helpers that run ParallelFor blocks. <= 0 means one fewer than the
  /// hardware parallelism (at least 1).
  int num_shards = 0;
  /// Kept only so perfbench, which writes 0, still compiles; a non-zero
  /// value is a fatal check when the backend is built.
  double time_scale = 0.0;
};

/// The seam between job logic and the machinery that runs it: everything
/// above this interface (runtime, engine, ft, exp, ...) schedules work
/// against virtual time and never names the simulator or a thread.
///
/// Every backend fires callbacks one at a time, on the thread inside
/// RunUntil/RunUntilIdle, in ascending (firing time, schedule sequence)
/// order: the deterministic simulator's order, which is what makes the
/// sim a byte-exact oracle for every other backend (the parity contract,
/// DESIGN.md §16). The only parallelism is ParallelFor
/// (common/parallel_for.h) inside a callback.
///
/// ## Driving
///
/// RunUntil / RunUntilIdle are called from the owning (driving) thread
/// only, never from inside a scheduled callback. Schedule and Cancel are
/// called from callbacks or from the driving thread between drives, never
/// from a ParallelFor block; now() is safe from all three.
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend();

  ExecutionBackend() = default;
  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  /// Which substrate this is (stamped into reports; never branch job
  /// logic on it).
  virtual BackendKind kind() const = 0;

  /// Current virtual time. Inside a callback (and its ParallelFor blocks)
  /// this is the callback's firing time; outside it is the high-water
  /// mark the backend has run to.
  virtual TimePoint now() const = 0;

  /// No-op returning 0, kept only so perfbench's TimedBackend override
  /// still compiles.
  virtual uint64_t NewStrand() { return 0; }

  /// Schedules `fn` `delay` after now() (negative delays clamp to zero)
  /// and returns an id usable with Cancel(). The first argument is
  /// ignored; it stays only because perfbench's TimedBackend overrides
  /// this. Everything else calls ScheduleAfter or ScheduleAt.
  virtual uint64_t ScheduleAfterOn(uint64_t strand, Duration delay,
                                   std::function<void()> fn) = 0;

  /// Cancels a pending callback; false if it already ran, was already
  /// cancelled, or never existed.
  [[nodiscard]] virtual bool Cancel(uint64_t id) = 0;

  /// Runs every callback with firing time <= deadline, then advances
  /// now() to `deadline`. Driving thread only.
  virtual void RunUntil(TimePoint deadline) = 0;

  /// Runs callbacks until none are pending. Driving thread only.
  virtual void RunUntilIdle() = 0;

  /// Drops every pending timer without running it. Idempotent.
  virtual void Stop() = 0;

  /// Number of callbacks executed so far.
  virtual int64_t events_processed() const = 0;

  /// Number of callbacks scheduled but not yet run or cancelled.
  virtual size_t pending() const = 0;

  /// Publishes backend counters to `registry` (nullptr detaches).
  /// Recording never feeds back into scheduling, so attaching metrics
  /// cannot change a run.
  virtual void AttachMetrics(obs::MetricsRegistry* registry) = 0;

  /// No-op, kept only so perfbench's TimedBackend override still compiles.
  virtual void AttachSpans(obs::SpanProfiler* /*spans*/) {}

  /// Schedules `fn` `delay` after now().
  uint64_t ScheduleAfter(Duration delay, std::function<void()> fn) {
    return ScheduleAfterOn(0, delay, std::move(fn));
  }

  /// Schedules `fn` at absolute virtual time `at` (clamped to now(), like
  /// a negative delay).
  uint64_t ScheduleAt(TimePoint at, std::function<void()> fn) {
    return ScheduleAfterOn(0, at - now(), std::move(fn));
  }
};

/// Builds a backend of the requested kind; `options` only affects
/// kThreads.
[[nodiscard]] std::unique_ptr<ExecutionBackend> MakeBackend(
    BackendKind kind, const ThreadedBackendOptions& options = {});

}  // namespace backend
}  // namespace ppa

#endif  // PPA_BACKEND_EXECUTION_BACKEND_H_
