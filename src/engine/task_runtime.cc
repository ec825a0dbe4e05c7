#include "engine/task_runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/serde.h"

namespace ppa {
namespace {

void PutTuple(BinaryWriter* w, const Tuple& t) {
  w->PutString(t.key);
  w->PutI64(t.value);
  w->PutI64(t.batch);
  w->PutU64(t.seq);
  w->PutI64(t.producer);
}

StatusOr<Tuple> GetTuple(BinaryReader* r) {
  Tuple t;
  PPA_ASSIGN_OR_RETURN(t.key, r->GetString());
  PPA_ASSIGN_OR_RETURN(t.value, r->GetI64());
  PPA_ASSIGN_OR_RETURN(t.batch, r->GetI64());
  PPA_ASSIGN_OR_RETURN(uint64_t seq, r->GetU64());
  t.seq = seq;
  PPA_ASSIGN_OR_RETURN(int64_t producer, r->GetI64());
  t.producer = static_cast<TaskId>(producer);
  return t;
}

}  // namespace

TaskRuntime::TaskRuntime(const Topology* topology, TaskId id,
                         std::unique_ptr<OperatorFunction> op,
                         std::unique_ptr<SourceFunction> source)
    : topology_(topology),
      id_(id),
      op_(std::move(op)),
      source_(std::move(source)) {
  PPA_CHECK((op_ != nullptr) != (source_ != nullptr))
      << "exactly one of operator/source must be provided";
  PPA_CHECK(topology_->IsSourceTask(id) == (source_ != nullptr))
      << "source function must match topology role for "
      << topology_->TaskLabel(id);
}

const BatchOutput& TaskRuntime::RunBatch(int64_t batch,
                                         std::vector<Tuple> inputs,
                                         bool emit_downstream,
                                         const BatchRunContext& ctx) {
  PPA_CHECK(batch == next_batch_)
      << topology_->TaskLabel(id_) << " expected batch " << next_batch_
      << " got " << batch;
  std::vector<Tuple> produced;
  if (is_source()) {
    produced = source_->NextBatch(batch, topology_->task(id_).index_in_op);
  } else {
    // Deterministic round-robin order: by producer, then sequence.
    std::sort(inputs.begin(), inputs.end(),
              [](const Tuple& a, const Tuple& b) {
                if (a.producer != b.producer) {
                  return a.producer < b.producer;
                }
                return a.seq < b.seq;
              });
    // Duplicate elimination by per-producer sequence number.
    std::vector<Tuple> fresh;
    fresh.reserve(inputs.size());
    for (Tuple& t : inputs) {
      auto it = progress_.find(t.producer);
      if (it != progress_.end() && t.seq <= it->second) {
        continue;  // Already processed (replayed duplicate).
      }
      progress_[t.producer] = t.seq;
      fresh.push_back(std::move(t));
    }
    processed_tuples_ += static_cast<int64_t>(fresh.size());
    obs::Add(tuples_counter_, static_cast<int64_t>(fresh.size()));
    const TaskInfo& info = topology_->task(id_);
    BatchContext ctx(batch, info.index_in_op,
                     topology_->op(info.op).parallelism);
    op_->ProcessBatch(&ctx, fresh);
    produced = std::move(ctx.emitted());
  }
  PPA_CHECK(produced.size() < (size_t{1} << 24))
      << "batch output too large for sequence encoding";
  for (size_t i = 0; i < produced.size(); ++i) {
    Tuple& t = produced[i];
    t.batch = batch;
    // Deterministic per-batch sequence numbers: a replica or a
    // reset-and-replayed task reproduces the exact sequence of the
    // original run, so downstream duplicate elimination works across
    // recoveries (Sec. V-B).
    t.seq = (static_cast<uint64_t>(batch) << 24) + i;
    t.producer = id_;
  }
  emitted_tuples_ += static_cast<int64_t>(produced.size());
  obs::Add(batches_counter_);
  ++next_batch_;
  if (emit_downstream) {
    output_buffer_.push_back(
        BatchOutput{batch, std::move(produced), ctx.ingest_at, ctx.hops});
    return output_buffer_.back();
  }
  scratch_ = BatchOutput{batch, std::move(produced), ctx.ingest_at, ctx.hops};
  return scratch_;
}

const BatchOutput* TaskRuntime::FindBatch(int64_t batch) const {
  // The buffer is ordered by batch index; binary search.
  auto it = std::lower_bound(
      output_buffer_.begin(), output_buffer_.end(), batch,
      [](const BatchOutput& b, int64_t key) { return b.batch < key; });
  if (it == output_buffer_.end() || it->batch != batch) {
    return nullptr;
  }
  return &*it;
}

void TaskRuntime::TrimOutputBuffer(int64_t up_to_batch) {
  while (!output_buffer_.empty() &&
         output_buffer_.front().batch <= up_to_batch) {
    output_buffer_.pop_front();
  }
}

int64_t TaskRuntime::BufferedTuples() const {
  int64_t total = 0;
  for (const BatchOutput& b : output_buffer_) {
    total += static_cast<int64_t>(b.tuples.size());
  }
  return total;
}

int64_t TaskRuntime::BufferedTuplesAfter(int64_t after_batch) const {
  int64_t total = 0;
  for (const BatchOutput& b : output_buffer_) {
    if (b.batch > after_batch) {
      total += static_cast<int64_t>(b.tuples.size());
    }
  }
  return total;
}

StatusOr<std::string> TaskRuntime::Snapshot() {
  snapshot_next_batch_ = next_batch_;
  BinaryWriter w;
  w.PutI64(next_batch_);
  w.PutU64(progress_.size());
  for (const auto& [producer, seq] : progress_) {
    w.PutI64(producer);
    w.PutU64(seq);
  }
  if (op_ != nullptr) {
    PPA_ASSIGN_OR_RETURN(std::string op_state, op_->SnapshotState());
    w.PutString(op_state);
  } else {
    w.PutString("");
  }
  w.PutU64(output_buffer_.size());
  for (const BatchOutput& b : output_buffer_) {
    w.PutI64(b.batch);
    w.PutI64(b.ingest_at.micros());
    w.PutI64(b.hops);
    w.PutU64(b.tuples.size());
    for (const Tuple& t : b.tuples) {
      PutTuple(&w, t);
    }
  }
  return std::move(w).data();
}

Status TaskRuntime::Restore(const std::string& checkpoint) {
  BinaryReader r(checkpoint);
  PPA_ASSIGN_OR_RETURN(next_batch_, r.GetI64());
  snapshot_next_batch_ = next_batch_;
  progress_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t entries, r.GetU64());
  for (uint64_t i = 0; i < entries; ++i) {
    PPA_ASSIGN_OR_RETURN(int64_t producer, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t seq, r.GetU64());
    progress_[static_cast<TaskId>(producer)] = seq;
  }
  PPA_ASSIGN_OR_RETURN(std::string op_state, r.GetString());
  if (op_ != nullptr) {
    PPA_RETURN_IF_ERROR(op_->RestoreState(op_state));
  }
  output_buffer_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t batches, r.GetU64());
  for (uint64_t i = 0; i < batches; ++i) {
    BatchOutput b;
    PPA_ASSIGN_OR_RETURN(b.batch, r.GetI64());
    PPA_ASSIGN_OR_RETURN(int64_t ingest_us, r.GetI64());
    b.ingest_at = TimePoint::FromMicros(ingest_us);
    PPA_ASSIGN_OR_RETURN(int64_t hops, r.GetI64());
    b.hops = static_cast<int32_t>(hops);
    PPA_ASSIGN_OR_RETURN(uint64_t tuples, r.GetU64());
    b.tuples.reserve(tuples);
    for (uint64_t j = 0; j < tuples; ++j) {
      PPA_ASSIGN_OR_RETURN(Tuple t, GetTuple(&r));
      b.tuples.push_back(std::move(t));
    }
    output_buffer_.push_back(std::move(b));
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in task checkpoint");
  }
  return OkStatus();
}

StatusOr<TaskRuntime::DeltaSnapshot> TaskRuntime::SnapshotDelta() {
  if (!SupportsDeltaSnapshots()) {
    return Unimplemented("task does not support delta snapshots");
  }
  DeltaSnapshot delta;
  BinaryWriter w;
  w.PutI64(next_batch_);
  // Progress map: small, stored in full.
  w.PutU64(progress_.size());
  for (const auto& [producer, seq] : progress_) {
    w.PutI64(producer);
    w.PutU64(seq);
  }
  int64_t op_delta_tuples = 0;
  PPA_ASSIGN_OR_RETURN(std::string op_delta,
                       op_->SnapshotDelta(&op_delta_tuples));
  w.PutString(op_delta);
  // Output-buffer delta: batches produced since the previous snapshot in
  // the chain, plus the current trim level so a restored chain drops what
  // this instance already dropped.
  const int64_t trim_below =
      output_buffer_.empty() ? next_batch_ : output_buffer_.front().batch;
  w.PutI64(trim_below);
  uint64_t fresh = 0;
  for (const BatchOutput& b : output_buffer_) {
    fresh += b.batch >= snapshot_next_batch_ ? 1 : 0;
  }
  w.PutU64(fresh);
  for (const BatchOutput& b : output_buffer_) {
    if (b.batch < snapshot_next_batch_) {
      continue;
    }
    w.PutI64(b.batch);
    w.PutI64(b.ingest_at.micros());
    w.PutI64(b.hops);
    w.PutU64(b.tuples.size());
    for (const Tuple& t : b.tuples) {
      PutTuple(&w, t);
    }
    delta.state_tuples += static_cast<int64_t>(b.tuples.size());
  }
  delta.state_tuples += op_delta_tuples;
  delta.blob = std::move(w).data();
  snapshot_next_batch_ = next_batch_;
  return delta;
}

Status TaskRuntime::ApplyDelta(const std::string& delta) {
  if (!SupportsDeltaSnapshots()) {
    return Unimplemented("task does not support delta snapshots");
  }
  BinaryReader r(delta);
  PPA_ASSIGN_OR_RETURN(int64_t next_batch, r.GetI64());
  if (next_batch < next_batch_) {
    return InvalidArgument("delta precedes restored state");
  }
  progress_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t entries, r.GetU64());
  for (uint64_t i = 0; i < entries; ++i) {
    PPA_ASSIGN_OR_RETURN(int64_t producer, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t seq, r.GetU64());
    progress_[static_cast<TaskId>(producer)] = seq;
  }
  PPA_ASSIGN_OR_RETURN(std::string op_delta, r.GetString());
  PPA_RETURN_IF_ERROR(op_->ApplyDelta(op_delta));
  PPA_ASSIGN_OR_RETURN(int64_t trim_below, r.GetI64());
  PPA_ASSIGN_OR_RETURN(uint64_t fresh, r.GetU64());
  for (uint64_t i = 0; i < fresh; ++i) {
    BatchOutput b;
    PPA_ASSIGN_OR_RETURN(b.batch, r.GetI64());
    PPA_ASSIGN_OR_RETURN(int64_t ingest_us, r.GetI64());
    b.ingest_at = TimePoint::FromMicros(ingest_us);
    PPA_ASSIGN_OR_RETURN(int64_t hops, r.GetI64());
    b.hops = static_cast<int32_t>(hops);
    PPA_ASSIGN_OR_RETURN(uint64_t tuples, r.GetU64());
    if (!output_buffer_.empty() && b.batch <= output_buffer_.back().batch) {
      return InvalidArgument("delta buffer batches out of order");
    }
    b.tuples.reserve(tuples);
    for (uint64_t j = 0; j < tuples; ++j) {
      PPA_ASSIGN_OR_RETURN(Tuple t, GetTuple(&r));
      b.tuples.push_back(std::move(t));
    }
    output_buffer_.push_back(std::move(b));
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in task delta");
  }
  TrimOutputBuffer(trim_below - 1);
  next_batch_ = next_batch;
  snapshot_next_batch_ = next_batch;
  return OkStatus();
}

void TaskRuntime::Reset(int64_t next_batch) {
  next_batch_ = next_batch;
  snapshot_next_batch_ = next_batch;
  progress_.clear();
  output_buffer_.clear();
  if (op_ != nullptr) {
    op_->Reset();
  }
}

void TaskRuntime::FastForward(int64_t next_batch) {
  PPA_CHECK(next_batch >= next_batch_);
  next_batch_ = next_batch;
}

}  // namespace ppa
