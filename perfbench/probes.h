#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Outside-in wall-clock probes for the traced benchmark run: decorators
// around the public ExecutionBackend, OperatorFunction and SourceFunction
// interfaces that forward every call and book its wall time into a
// per-thread LayerTimes slot. The slots are merged into one total only
// between drives, when the backend guarantees no callback is running, so
// the probes stay valid when one job's callbacks move between threads.

#include <cstdint>
#include <functional>
#include <memory>
#include <set>

#include "backend/execution_backend.h"
#include "engine/operator.h"

namespace ppa {
class StreamingJob;
}  // namespace ppa

namespace perfbench {

/// Wall time and work counts of the engine and ft layers, as seen from
/// the decorators. Times are seconds.
struct LayerTimes {
  /// Backend callbacks run, and wall time inside them.
  int64_t callbacks = 0;
  double busy_s = 0.0;
  /// OperatorFunction::ProcessBatch calls, time, and tuple counts.
  int64_t process_calls = 0;
  double process_s = 0.0;
  int64_t tuples_in = 0;
  int64_t tuples_out = 0;
  /// The part of process_s spent on batches below the job frontier
  /// (catch-up replay after a recovery).
  double replay_s = 0.0;
  /// SourceFunction::NextBatch time and tuples produced.
  double source_s = 0.0;
  int64_t source_tuples = 0;
  /// SnapshotState/SnapshotDelta calls, time, and serialized bytes.
  int64_t snapshot_calls = 0;
  double snapshot_s = 0.0;
  int64_t snapshot_bytes = 0;
  /// RestoreState/ApplyDelta calls and time.
  int64_t restore_calls = 0;
  double restore_s = 0.0;
  /// Wall time of the callbacks that persisted or skipped a checkpoint:
  /// the whole task snapshot (operator state, dedup map and output
  /// buffer), the store, the skip gate and upstream trimming. Includes
  /// the operator part, snapshot_s.
  double checkpoint_s = 0.0;

  void MergeFrom(const LayerTimes& other);
};

/// Owns the totals of one traced job run. Each thread books into its own
/// slot; Collect() folds every slot into the totals and must only run
/// while no probed code executes (between backend drives).
class TraceSession {
 public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The calling thread's slot for this session.
  LayerTimes& Local();

  /// Merges and clears every thread's slot.
  void Collect();

  const LayerTimes& totals() const { return totals_; }
  /// Distinct threads that ran at least one backend callback.
  int threads_used() const { return static_cast<int>(threads_.size()); }

  /// The job whose checkpoint counters TimedBackend reads to classify
  /// callbacks. Set before the first drive; the job must outlive every
  /// callback it schedules.
  void WatchJob(const ppa::StreamingJob* job) { job_ = job; }
  const ppa::StreamingJob* job() const { return job_; }

 private:
  struct Slots;
  std::unique_ptr<Slots> slots_;
  LayerTimes totals_;
  std::set<uint64_t> threads_;
  const ppa::StreamingJob* job_ = nullptr;
};

/// ExecutionBackend decorator: forwards every call to `inner` and times
/// each scheduled callback into the session. RunUntil/RunUntilIdle
/// collect the per-thread slots once the drive has drained.
///
/// A callback during which the session's watched job persisted or
/// skipped a checkpoint is also booked as checkpoint time.
class TimedBackend final : public ppa::backend::ExecutionBackend {
 public:
  TimedBackend(ppa::backend::ExecutionBackend* inner, TraceSession* session);

  ppa::backend::BackendKind kind() const override { return inner_->kind(); }
  ppa::TimePoint now() const override { return inner_->now(); }
  uint64_t NewStrand() override { return inner_->NewStrand(); }
  uint64_t ScheduleAfterOn(uint64_t strand, ppa::Duration delay,
                           std::function<void()> fn) override;
  [[nodiscard]] bool Cancel(uint64_t id) override {
    return inner_->Cancel(id);
  }
  void RunUntil(ppa::TimePoint deadline) override;
  void RunUntilIdle() override;
  void Stop() override { inner_->Stop(); }
  int64_t events_processed() const override {
    return inner_->events_processed();
  }
  size_t pending() const override { return inner_->pending(); }
  void AttachMetrics(ppa::obs::MetricsRegistry* registry) override {
    inner_->AttachMetrics(registry);
  }
  void AttachSpans(ppa::obs::SpanProfiler* spans) override {
    inner_->AttachSpans(spans);
  }

 private:
  /// Persisted checkpoint bytes plus skipped checkpoints of the watched
  /// job: moves exactly when a checkpoint callback ran.
  int64_t CheckpointEvents() const;

  ppa::backend::ExecutionBackend* inner_;
  TraceSession* session_;
};

/// Wraps an operator factory so every instance it makes is timed into
/// `session`. `job` is read inside ProcessBatch (on the job's strand) to
/// tell catch-up replay from live processing; it must outlive the
/// instances.
ppa::OperatorFactory TimedOperatorFactory(ppa::OperatorFactory inner,
                                          const ppa::StreamingJob* job,
                                          TraceSession* session);

/// Wraps a source factory so every instance it makes is timed.
ppa::SourceFactory TimedSourceFactory(ppa::SourceFactory inner,
                                      TraceSession* session);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
