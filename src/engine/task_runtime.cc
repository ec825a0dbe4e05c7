#include "engine/task_runtime.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/logging.h"
#include "engine/serde.h"

namespace ppa {
namespace {

/// Encoded bytes of a buffered batch's header: batch, ingest time, hops and
/// tuple count.
constexpr size_t kBatchHeaderBytes = 4 * sizeof(int64_t);

/// Tuples one batch may hold: the per-batch sequence encoding keeps 24
/// bits for the position.
constexpr size_t kMaxBatchTuples = size_t{1} << 24;

/// Encoded bytes of the largest batch: kMaxBatchTuples full-length keys.
constexpr size_t kMaxBatchBytes =
    kBatchHeaderBytes +
    kMaxBatchTuples * (kTupleFixedBytes + TupleKey::kCapacity);
static_assert(kMaxBatchBytes <= UINT32_MAX,
              "the largest encoded batch must fit BatchOutput::encoded_bytes");

/// The run of the batch `batch` that task `producer` emits: RunBatch
/// stamps its tuple i with seq (batch << 24) + i (Sec. V-B).
TupleRun BatchRun(TaskId producer, int64_t batch) {
  return TupleRun{producer, batch, static_cast<uint64_t>(batch) << 24};
}

/// Writes buffered batch `b` of task `producer` at `out`, storing nothing
/// at or past `limit`: its header, then its tuples as the one run RunBatch
/// stamped, which the reader derives.
char* WriteBatchAt(TaskId producer, const BatchOutput& b, char* out,
                   const char* limit) {
  out = StoreAt(out, b.batch);
  out = StoreAt(out, b.ingest_at.micros());
  out = StoreAt(out, static_cast<int64_t>(b.hops));
  out = StoreAt(out, static_cast<uint64_t>(b.tuples.size()));
  return EncodeTuplesAt(b.tuples, BatchRun(producer, b.batch), out, limit);
}

/// Reads a buffered batch of task `producer` written by WriteBatchAt.
StatusOr<BatchOutput> GetBatch(TaskId producer, BinaryReader* r) {
  const size_t start = r->remaining();
  int64_t header[kBatchHeaderBytes / sizeof(int64_t)];
  PPA_RETURN_IF_ERROR(r->GetBytes(header, sizeof(header)));
  BatchOutput b;
  b.batch = header[0];
  b.ingest_at = TimePoint::FromMicros(header[1]);
  b.hops = static_cast<int32_t>(header[2]);
  const auto tuples = static_cast<uint64_t>(header[3]);
  if (tuples > kMaxBatchTuples) {
    return OutOfRange("buffered batch of " + std::to_string(tuples) +
                      " tuples exceeds 2^24");
  }
  PPA_RETURN_IF_ERROR(
      r->GetTuples(tuples, BatchRun(producer, b.batch), &b.tuples));
  b.encoded_bytes = static_cast<uint32_t>(start - r->remaining());
  return b;
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
                                         const BatchRunContext& ctx) {
  PPA_CHECK(batch == next_batch_)
      << topology_->TaskLabel(id_) << " expected batch " << next_batch_
      << " got " << batch;
  std::vector<Tuple> produced;
  if (is_source()) {
    produced = source_->NextBatch(batch, topology_->task(id_).index_in_op);
  } else {
    // Deterministic round-robin order: by producer, then sequence. The
    // scheduler gathers upstream batches in `in_substreams` order, which
    // already is this order on every producer-ordered topology, so the
    // sort only runs for inputs that are not (e.g. joins whose edges were
    // connected out of producer order, or direct callers). Ties are
    // identical duplicate tuples, so skipping the sort is exact.
    auto by_producer_seq = [](const Tuple& a, const Tuple& b) {
      if (a.producer != b.producer) {
        return a.producer < b.producer;
      }
      return a.seq < b.seq;
    };
    if (!std::is_sorted(inputs.begin(), inputs.end(), by_producer_seq)) {
      std::sort(inputs.begin(), inputs.end(), by_producer_seq);
    }
    // Duplicate elimination by per-producer sequence number, compacting
    // the fresh tuples to the front of `inputs`. Each producer's tuples
    // form one run, so its progress entry is looked up once per run.
    auto fresh_end = inputs.begin();
    for (auto run = inputs.begin(); run != inputs.end();) {
      const TaskId producer = run->producer;
      auto [last, new_producer] = progress_.try_emplace(producer, 0);
      for (; run != inputs.end() && run->producer == producer; ++run) {
        if (!new_producer && run->seq <= last->second) {
          continue;  // Already processed (replayed duplicate).
        }
        new_producer = false;
        last->second = run->seq;
        if (fresh_end != run) {
          *fresh_end = std::move(*run);
        }
        ++fresh_end;
      }
    }
    inputs.erase(fresh_end, inputs.end());
    processed_tuples_ += static_cast<int64_t>(inputs.size());
    const TaskInfo& info = topology_->task(id_);
    BatchContext ctx(batch, info.index_in_op,
                     topology_->op(info.op).parallelism);
    ctx.inputs_adoptable_ = true;
    op_->ProcessBatch(&ctx, inputs);
    if (ctx.adopt_into_ != nullptr) {
      *ctx.adopt_into_ = std::move(inputs);
    }
    produced = std::move(ctx.emitted());
  }
  PPA_CHECK(produced.size() < kMaxBatchTuples)
      << "batch output too large for sequence encoding";
  size_t bytes = kBatchHeaderBytes + kTupleFixedBytes * produced.size();
  // Deterministic per-batch sequence numbers: a replica or a
  // reset-and-replayed task reproduces the exact sequence of the original
  // run, so downstream duplicate elimination works across recoveries
  // (Sec. V-B), and a checkpoint need not write them.
  const TupleRun run = BatchRun(id_, batch);
  for (size_t i = 0; i < produced.size(); ++i) {
    Tuple& t = produced[i];
    t.batch = run.batch;
    t.seq = run.first_seq + i;
    t.producer = run.producer;
    bytes += t.key.size();
  }
  emitted_tuples_ += static_cast<int64_t>(produced.size());
  ++next_batch_;
  PushBatch(BatchOutput{batch, std::move(produced), ctx.ingest_at, ctx.hops,
                        static_cast<uint32_t>(bytes)});
  return output_buffer_.back();
}

const BatchOutput* TaskRuntime::FindBatch(int64_t batch) const {
  auto it = BatchesFrom(batch);
  if (it == output_buffer_.end() || it->batch != batch) {
    return nullptr;
  }
  return &*it;
}

void TaskRuntime::PushBatch(BatchOutput b) {
  PPA_CHECK(!buffer_frozen_)
      << topology_->TaskLabel(id_) << " output buffer changed while frozen";
  buffered_tuples_ += static_cast<int64_t>(b.tuples.size());
  buffered_bytes_ += b.encoded_bytes;
  output_buffer_.push_back(std::move(b));
}

void TaskRuntime::ClearOutputBuffer() {
  PPA_CHECK(!buffer_frozen_)
      << topology_->TaskLabel(id_) << " output buffer changed while frozen";
  output_buffer_.clear();
  buffered_tuples_ = 0;
  buffered_bytes_ = 0;
}

void TaskRuntime::TrimOutputBuffer(int64_t up_to_batch) {
  PPA_CHECK(!buffer_frozen_)
      << topology_->TaskLabel(id_) << " output buffer changed while frozen";
  while (!output_buffer_.empty() &&
         output_buffer_.front().batch <= up_to_batch) {
    const BatchOutput& front = output_buffer_.front();
    buffered_tuples_ -= static_cast<int64_t>(front.tuples.size());
    buffered_bytes_ -= front.encoded_bytes;
    output_buffer_.pop_front();
  }
}

std::deque<BatchOutput>::const_iterator TaskRuntime::BatchesFrom(
    int64_t batch) const {
  // The buffer is ordered by batch index; binary search.
  return std::lower_bound(
      output_buffer_.begin(), output_buffer_.end(), batch,
      [](const BatchOutput& b, int64_t key) { return b.batch < key; });
}

std::string TaskRuntime::EncodeCheckpoint(const std::string& op_blob,
                                          bool delta,
                                          int64_t* buffer_tuples) {
  // A delta carries the trim level so that a restored chain drops what
  // this instance already dropped.
  const auto first =
      delta ? BatchesFrom(snapshot_next_batch_) : output_buffer_.cbegin();
  size_t buffer_bytes = buffered_bytes_;
  for (auto it = output_buffer_.cbegin(); it != first; ++it) {
    buffer_bytes -= it->encoded_bytes;
  }
  // Sized once from the cached batch sizes and never zero-filled: a wide
  // sink's blob runs to megabytes, and growing it by doubling leaves freed
  // holes that make the heap's footprint depend on the order of earlier
  // allocations.
  const size_t bytes =
      sizeof(int64_t) +                                          // next batch
      sizeof(uint64_t) + progress_.size() * 2 * sizeof(int64_t) +  // progress
      sizeof(uint64_t) + op_blob.size() +                        // op state
      (delta ? sizeof(int64_t) : 0) +                            // trim level
      sizeof(uint64_t) + buffer_bytes;                           // buffer
  // The operator blob and the batches encode in parts that may run on
  // other threads, which read the buffer; nothing may change it meanwhile.
  const bool was_frozen = std::exchange(buffer_frozen_, true);
  std::string blob = EncodeBlob(bytes, [&](char* data) {
    char* out = StoreAt(data, next_batch_);
    out = StoreAt(out, static_cast<uint64_t>(progress_.size()));
    for (const auto& [producer, seq] : progress_) {
      out = StoreAt(out, static_cast<int64_t>(producer));
      out = StoreAt(out, seq);
    }
    out = StoreAt(out, static_cast<uint64_t>(op_blob.size()));
    char* const op_out = out;
    out += op_blob.size();
    if (delta) {
      out = StoreAt(out, output_buffer_.empty() ? next_batch_
                                                : output_buffer_.front().batch);
    }
    out = StoreAt(out, static_cast<uint64_t>(output_buffer_.cend() - first));
    const size_t written = static_cast<size_t>(out - data) + buffer_bytes;
    PPA_CHECK(written == bytes)
        << topology_->TaskLabel(id_) << " checkpoint is " << written
        << " bytes, presized " << bytes;
    EncodeRunAt(
        op_blob, op_out, first, output_buffer_.cend(), buffer_bytes, out,
        [](const BatchOutput& b) -> size_t { return b.encoded_bytes; },
        [this](const BatchOutput& b, char* at, const char* limit) {
          return WriteBatchAt(id_, b, at, limit);
        });
  });
  buffer_frozen_ = was_frozen;
  for (auto it = first; it != output_buffer_.cend(); ++it) {
    *buffer_tuples += static_cast<int64_t>(it->tuples.size());
  }
  snapshot_next_batch_ = next_batch_;
  return blob;
}

Status TaskRuntime::DecodeCheckpoint(const std::string& blob, bool delta) {
  BinaryReader r(blob);
  PPA_ASSIGN_OR_RETURN(int64_t next_batch, r.GetI64());
  if (delta && next_batch < next_batch_) {
    return InvalidArgument("delta precedes restored state");
  }
  progress_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t entries, r.GetU64());
  for (uint64_t i = 0; i < entries; ++i) {
    PPA_ASSIGN_OR_RETURN(int64_t producer, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t seq, r.GetU64());
    progress_[static_cast<TaskId>(producer)] = seq;
  }
  PPA_ASSIGN_OR_RETURN(std::string op_blob, r.GetString());
  int64_t trim_below = 0;
  if (delta) {
    PPA_RETURN_IF_ERROR(op_->ApplyDelta(op_blob));
    PPA_ASSIGN_OR_RETURN(trim_below, r.GetI64());
  } else {
    if (op_ != nullptr) {
      PPA_RETURN_IF_ERROR(op_->RestoreState(op_blob));
    } else if (!op_blob.empty()) {
      return InvalidArgument("source task checkpoint carries " +
                             std::to_string(op_blob.size()) +
                             " bytes of operator state");
    }
    ClearOutputBuffer();
  }
  PPA_ASSIGN_OR_RETURN(uint64_t batches, r.GetU64());
  for (uint64_t i = 0; i < batches; ++i) {
    PPA_ASSIGN_OR_RETURN(BatchOutput b, GetBatch(id_, &r));
    if (!output_buffer_.empty() && b.batch <= output_buffer_.back().batch) {
      return InvalidArgument("checkpoint buffer batches out of order");
    }
    PushBatch(std::move(b));
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in task checkpoint");
  }
  if (delta) {
    TrimOutputBuffer(trim_below - 1);
  }
  next_batch_ = next_batch;
  snapshot_next_batch_ = next_batch;
  return OkStatus();
}

StatusOr<std::string> TaskRuntime::Snapshot() {
  std::string op_state;
  if (op_ != nullptr) {
    PPA_ASSIGN_OR_RETURN(op_state, op_->SnapshotState());
  }
  int64_t buffer_tuples = 0;
  return EncodeCheckpoint(op_state, /*delta=*/false, &buffer_tuples);
}

Status TaskRuntime::Restore(const std::string& checkpoint) {
  return DecodeCheckpoint(checkpoint, /*delta=*/false);
}

StatusOr<TaskRuntime::DeltaSnapshot> TaskRuntime::SnapshotDelta() {
  if (!SupportsDeltaSnapshots()) {
    return Unimplemented("task does not support delta snapshots");
  }
  DeltaSnapshot delta;
  PPA_ASSIGN_OR_RETURN(std::string op_delta,
                       op_->SnapshotDelta(&delta.state_tuples));
  delta.blob = EncodeCheckpoint(op_delta, /*delta=*/true, &delta.state_tuples);
  return delta;
}

Status TaskRuntime::ApplyDelta(const std::string& delta) {
  if (!SupportsDeltaSnapshots()) {
    return Unimplemented("task does not support delta snapshots");
  }
  return DecodeCheckpoint(delta, /*delta=*/true);
}

void TaskRuntime::Reset(int64_t next_batch) {
  next_batch_ = next_batch;
  snapshot_next_batch_ = next_batch;
  progress_.clear();
  ClearOutputBuffer();
  if (op_ != nullptr) {
    op_->Reset();
  }
}

void TaskRuntime::FastForward(int64_t next_batch) {
  PPA_CHECK(next_batch >= next_batch_);
  next_batch_ = next_batch;
}

}  // namespace ppa
