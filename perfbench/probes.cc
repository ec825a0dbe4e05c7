#include "probes.h"

#include <atomic>
#include <map>
#include <utility>

#include "common/thread_annotations.h"
#include "common/wall_clock.h"
#include "runtime/streaming_job.h"

namespace perfbench {
namespace {

using ppa::WallClockSeconds;

std::atomic<uint64_t> next_session_id{1};
std::atomic<uint64_t> next_thread_key{1};

/// This thread's identity, and its slot in the most recent session it
/// booked into (sessions are keyed by id, never by address, so a new
/// session at a recycled address cannot pick up a stale slot).
thread_local uint64_t tls_thread_key = 0;
thread_local uint64_t tls_session_id = 0;
thread_local LayerTimes* tls_slot = nullptr;

class TimedOperator final : public ppa::OperatorFunction {
 public:
  TimedOperator(std::unique_ptr<ppa::OperatorFunction> inner,
                const ppa::StreamingJob* job, TraceSession* session)
      : inner_(std::move(inner)), job_(job), session_(session) {}

  void ProcessBatch(ppa::BatchContext* ctx,
                    const std::vector<ppa::Tuple>& inputs) override {
    const size_t emitted_before = ctx->emitted().size();
    const double start = WallClockSeconds();
    inner_->ProcessBatch(ctx, inputs);
    const double elapsed = WallClockSeconds() - start;
    LayerTimes& local = session_->Local();
    ++local.process_calls;
    local.process_s += elapsed;
    local.tuples_in += static_cast<int64_t>(inputs.size());
    local.tuples_out +=
        static_cast<int64_t>(ctx->emitted().size() - emitted_before);
    if (ctx->batch_index() < job_->frontier()) {
      local.replay_s += elapsed;
    }
  }

  ppa::StatusOr<std::string> SnapshotState() override {
    const double start = WallClockSeconds();
    ppa::StatusOr<std::string> blob = inner_->SnapshotState();
    BookSnapshot(start, blob);
    return blob;
  }

  ppa::Status RestoreState(const std::string& snapshot) override {
    const double start = WallClockSeconds();
    ppa::Status status = inner_->RestoreState(snapshot);
    BookRestore(start);
    return status;
  }

  bool SupportsDeltaSnapshots() const override {
    return inner_->SupportsDeltaSnapshots();
  }

  ppa::StatusOr<std::string> SnapshotDelta(int64_t* delta_tuples) override {
    const double start = WallClockSeconds();
    ppa::StatusOr<std::string> blob = inner_->SnapshotDelta(delta_tuples);
    BookSnapshot(start, blob);
    return blob;
  }

  ppa::Status ApplyDelta(const std::string& delta) override {
    const double start = WallClockSeconds();
    ppa::Status status = inner_->ApplyDelta(delta);
    BookRestore(start);
    return status;
  }

  void Reset() override { inner_->Reset(); }
  int64_t StateSizeTuples() const override {
    return inner_->StateSizeTuples();
  }

 private:
  void BookSnapshot(double start, const ppa::StatusOr<std::string>& blob) {
    const double elapsed = WallClockSeconds() - start;
    LayerTimes& local = session_->Local();
    ++local.snapshot_calls;
    local.snapshot_s += elapsed;
    if (blob.ok()) {
      local.snapshot_bytes += static_cast<int64_t>(blob->size());
    }
  }

  void BookRestore(double start) {
    const double elapsed = WallClockSeconds() - start;
    LayerTimes& local = session_->Local();
    ++local.restore_calls;
    local.restore_s += elapsed;
  }

  std::unique_ptr<ppa::OperatorFunction> inner_;
  const ppa::StreamingJob* job_;
  TraceSession* session_;
};

class TimedSource final : public ppa::SourceFunction {
 public:
  TimedSource(std::unique_ptr<ppa::SourceFunction> inner,
              TraceSession* session)
      : inner_(std::move(inner)), session_(session) {}

  std::vector<ppa::Tuple> NextBatch(int64_t batch_index,
                                    int task_index) override {
    const double start = WallClockSeconds();
    std::vector<ppa::Tuple> out = inner_->NextBatch(batch_index, task_index);
    LayerTimes& local = session_->Local();
    local.source_s += WallClockSeconds() - start;
    local.source_tuples += static_cast<int64_t>(out.size());
    return out;
  }

 private:
  std::unique_ptr<ppa::SourceFunction> inner_;
  TraceSession* session_;
};

}  // namespace

void LayerTimes::MergeFrom(const LayerTimes& other) {
  callbacks += other.callbacks;
  busy_s += other.busy_s;
  process_calls += other.process_calls;
  process_s += other.process_s;
  tuples_in += other.tuples_in;
  tuples_out += other.tuples_out;
  replay_s += other.replay_s;
  source_s += other.source_s;
  source_tuples += other.source_tuples;
  snapshot_calls += other.snapshot_calls;
  snapshot_s += other.snapshot_s;
  snapshot_bytes += other.snapshot_bytes;
  restore_calls += other.restore_calls;
  restore_s += other.restore_s;
  checkpoint_s += other.checkpoint_s;
}

struct TraceSession::Slots {
  const uint64_t id = next_session_id.fetch_add(1);
  ppa::Mutex mu;
  /// One slot per thread key. Each slot is written only by its thread
  /// (without the lock) and read by Collect() between drives.
  std::map<uint64_t, std::unique_ptr<LayerTimes>> by_thread
      PPA_GUARDED_BY(mu);
};

TraceSession::TraceSession() : slots_(std::make_unique<Slots>()) {}

TraceSession::~TraceSession() = default;

LayerTimes& TraceSession::Local() {
  if (tls_session_id == slots_->id) {
    return *tls_slot;
  }
  if (tls_thread_key == 0) {
    tls_thread_key = next_thread_key.fetch_add(1);
  }
  ppa::MutexLock lock(&slots_->mu);
  std::unique_ptr<LayerTimes>& slot = slots_->by_thread[tls_thread_key];
  if (slot == nullptr) {
    slot = std::make_unique<LayerTimes>();
  }
  tls_session_id = slots_->id;
  tls_slot = slot.get();
  return *slot;
}

void TraceSession::Collect() {
  ppa::MutexLock lock(&slots_->mu);
  for (auto& [thread_key, slot] : slots_->by_thread) {
    if (slot->callbacks > 0) {
      threads_.insert(thread_key);
    }
    totals_.MergeFrom(*slot);
    *slot = LayerTimes();
  }
}

TimedBackend::TimedBackend(ppa::backend::ExecutionBackend* inner,
                           TraceSession* session)
    : inner_(inner), session_(session) {}

uint64_t TimedBackend::ScheduleAfterOn(uint64_t strand, ppa::Duration delay,
                                       std::function<void()> fn) {
  return inner_->ScheduleAfterOn(
      strand, delay, [this, fn = std::move(fn)] {
        const int64_t checkpoints_before = CheckpointEvents();
        const double start = WallClockSeconds();
        fn();
        const double elapsed = WallClockSeconds() - start;
        LayerTimes& local = session_->Local();
        local.busy_s += elapsed;
        ++local.callbacks;
        if (CheckpointEvents() != checkpoints_before) {
          local.checkpoint_s += elapsed;
        }
      });
}

int64_t TimedBackend::CheckpointEvents() const {
  const ppa::StreamingJob* job = session_->job();
  return job == nullptr
             ? 0
             : job->CheckpointBytesWritten() + job->CheckpointsSkipped();
}

void TimedBackend::RunUntil(ppa::TimePoint deadline) {
  inner_->RunUntil(deadline);
  session_->Collect();
}

void TimedBackend::RunUntilIdle() {
  inner_->RunUntilIdle();
  session_->Collect();
}

ppa::OperatorFactory TimedOperatorFactory(ppa::OperatorFactory inner,
                                          const ppa::StreamingJob* job,
                                          TraceSession* session) {
  return [inner = std::move(inner), job, session] {
    return std::make_unique<TimedOperator>(inner(), job, session);
  };
}

ppa::SourceFactory TimedSourceFactory(ppa::SourceFactory inner,
                                      TraceSession* session) {
  return [inner = std::move(inner), session] {
    return std::make_unique<TimedSource>(inner(), session);
  };
}

}  // namespace perfbench
