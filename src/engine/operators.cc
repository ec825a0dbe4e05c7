#include "engine/operators.h"

#include <algorithm>
#include <iterator>

#include "common/hash.h"
#include "common/logging.h"
#include "engine/serde.h"

namespace ppa {
namespace {

/// Encoded bytes of a window slice's header: batch and tuple count.
constexpr size_t kSliceHeaderBytes = 2 * sizeof(int64_t);

/// A window slice as a snapshot encodes it: its header, then its tuples.
constexpr auto kSliceRecord = [](const auto& slice) {
  return EncodedRecord{{slice.batch, static_cast<int64_t>(slice.tuples.size())},
                       kSliceHeaderBytes / sizeof(int64_t),
                       &slice.tuples,
                       slice.bytes};
};

}  // namespace

void PassThroughOperator::ProcessBatch(BatchContext* ctx,
                                       const std::vector<Tuple>& inputs) {
  for (const Tuple& t : inputs) {
    ctx->Emit(t.key, t.value);
  }
}

StatusOr<std::string> PassThroughOperator::SnapshotState() {
  return std::string();
}

Status PassThroughOperator::RestoreState(const std::string& snapshot) {
  if (!snapshot.empty()) {
    return InvalidArgument("PassThroughOperator has no state");
  }
  return OkStatus();
}

SelectivityOperator::SelectivityOperator(double selectivity)
    : selectivity_(selectivity) {}

void SelectivityOperator::ProcessBatch(BatchContext* ctx,
                                       const std::vector<Tuple>& inputs) {
  for (const Tuple& t : inputs) {
    const uint64_t h = Mix64(Fnv1a64(t.key) ^ static_cast<uint64_t>(t.value));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u < selectivity_) {
      ctx->Emit(t.key, t.value);
    }
  }
}

StatusOr<std::string> SelectivityOperator::SnapshotState() {
  return std::string();
}

Status SelectivityOperator::RestoreState(const std::string& snapshot) {
  if (!snapshot.empty()) {
    return InvalidArgument("SelectivityOperator has no state");
  }
  return OkStatus();
}

SlidingWindowAggregateOperator::SlidingWindowAggregateOperator(
    int64_t window_batches, double selectivity)
    : window_batches_(window_batches), selectivity_(selectivity) {}

std::vector<Tuple>& SlidingWindowAggregateOperator::PushSlice(
    int64_t batch, const std::vector<Tuple>& tuples) {
  int64_t sum = 0;
  size_t bytes = kSliceHeaderBytes + kTupleFixedBytes * tuples.size();
  for (const Tuple& t : tuples) {
    sum += t.value;
    bytes += t.key.size();
  }
  window_sum_ += sum;
  window_tuples_ += static_cast<int64_t>(tuples.size());
  window_bytes_ += bytes;
  return window_.emplace_back(WindowSlice{batch, {}, sum, bytes}).tuples;
}

void SlidingWindowAggregateOperator::Evict(int64_t current_batch) {
  while (!window_.empty() &&
         window_.front().batch <= current_batch - window_batches_) {
    const WindowSlice& front = window_.front();
    window_sum_ -= front.sum;
    window_tuples_ -= static_cast<int64_t>(front.tuples.size());
    window_bytes_ -= front.bytes;
    window_.pop_front();
  }
}

void SlidingWindowAggregateOperator::ProcessBatch(
    BatchContext* ctx, const std::vector<Tuple>& inputs) {
  Evict(ctx->batch_index());
  std::vector<Tuple>& slice = PushSlice(ctx->batch_index(), inputs);
  if (!ctx->AdoptInputs(&slice)) {
    slice = inputs;
  }
  // Emit a window aggregate for a `selectivity` fraction of the batch's
  // tuples: every tuple whose position survives the deterministic stride.
  const size_t n = inputs.size();
  const size_t out = static_cast<size_t>(static_cast<double>(n) *
                                         selectivity_);
  ctx->Reserve(out);
  for (size_t i = 0; i < out; ++i) {
    const Tuple& t = inputs[i * n / (out == 0 ? 1 : out) % n];
    ctx->Emit(t.key, window_sum_);
  }
}

StatusOr<std::string> SlidingWindowAggregateOperator::SnapshotState() {
  std::string blob =
      EncodeBlob(2 * sizeof(int64_t) + window_bytes_, [this](char* out) {
        out = StoreAt(out, window_sum_);
        out = StoreAt(out, static_cast<uint64_t>(window_.size()));
        EncodeRunAt({}, nullptr, window_.cbegin(), window_.cend(),
                    window_bytes_, out, kSliceRecord);
      });
  snapshot_marker_ = window_.empty() ? -1 : window_.back().batch;
  return blob;
}

StatusOr<std::string> SlidingWindowAggregateOperator::SnapshotDelta(
    int64_t* delta_tuples) {
  // Slices are in batch order, so the fresh ones are a suffix.
  auto fresh = window_.cend();
  size_t fresh_bytes = 0;
  int64_t fresh_tuples = 0;
  while (fresh != window_.cbegin() &&
         std::prev(fresh)->batch > snapshot_marker_) {
    --fresh;
    fresh_bytes += fresh->bytes;
    fresh_tuples += static_cast<int64_t>(fresh->tuples.size());
  }
  const int64_t horizon = window_.empty() ? snapshot_marker_
                                          : window_.back().batch;
  std::string blob =
      EncodeBlob(2 * sizeof(int64_t) + fresh_bytes, [&](char* out) {
        out = StoreAt(out, horizon);
        out = StoreAt(out, static_cast<uint64_t>(window_.cend() - fresh));
        EncodeRunAt({}, nullptr, fresh, window_.cend(), fresh_bytes, out,
                    kSliceRecord);
      });
  snapshot_marker_ = horizon;
  if (delta_tuples != nullptr) {
    *delta_tuples = fresh_tuples;
  }
  return blob;
}

Status SlidingWindowAggregateOperator::ApplyDelta(const std::string& delta) {
  BinaryReader r(delta);
  PPA_ASSIGN_OR_RETURN(int64_t horizon, r.GetI64());
  PPA_ASSIGN_OR_RETURN(uint64_t slices, r.GetU64());
  for (uint64_t i = 0; i < slices; ++i) {
    PPA_ASSIGN_OR_RETURN(int64_t batch, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
    if (!window_.empty() && batch <= window_.back().batch) {
      return InvalidArgument("delta slices out of order (slice " +
                             std::to_string(batch) + " <= window back " +
                             std::to_string(window_.back().batch) +
                             ", horizon " + std::to_string(horizon) + ")");
    }
    std::vector<Tuple> tuples;
    PPA_RETURN_IF_ERROR(r.GetTuples(count, &tuples));
    PushSlice(batch, tuples) = std::move(tuples);
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in window delta");
  }
  Evict(horizon);
  snapshot_marker_ = horizon;
  return OkStatus();
}

Status SlidingWindowAggregateOperator::RestoreState(
    const std::string& snapshot) {
  BinaryReader r(snapshot);
  Reset();
  PPA_ASSIGN_OR_RETURN(int64_t window_sum, r.GetI64());
  PPA_ASSIGN_OR_RETURN(uint64_t slices, r.GetU64());
  for (uint64_t i = 0; i < slices; ++i) {
    PPA_ASSIGN_OR_RETURN(int64_t batch, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t count, r.GetU64());
    if (!window_.empty() && batch <= window_.back().batch) {
      // Evict() drops slices from the front by batch, so an unordered
      // window would lose the wrong ones.
      return InvalidArgument("window snapshot slices out of order (slice " +
                             std::to_string(batch) + " <= previous " +
                             std::to_string(window_.back().batch) + ")");
    }
    std::vector<Tuple> tuples;
    PPA_RETURN_IF_ERROR(r.GetTuples(count, &tuples));
    PushSlice(batch, tuples) = std::move(tuples);
  }
  // The blob's sum is authoritative, not the recount.
  window_sum_ = window_sum;
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in window snapshot");
  }
  snapshot_marker_ = window_.empty() ? -1 : window_.back().batch;
  return OkStatus();
}

void SlidingWindowAggregateOperator::Reset() {
  window_.clear();
  window_sum_ = 0;
  window_tuples_ = 0;
  window_bytes_ = 0;
  snapshot_marker_ = -1;
}

WindowedKeyCountOperator::WindowedKeyCountOperator(int64_t window_batches)
    : window_batches_(window_batches) {}

void WindowedKeyCountOperator::Evict(int64_t current_batch) {
  while (!slices_.empty() &&
         slices_.front().first <= current_batch - window_batches_) {
    for (const auto& [key, count] : slices_.front().second) {
      auto it = counts_.find(key);
      it->second -= count;
      if (it->second <= 0) {
        counts_.erase(it);
      }
    }
    slices_.pop_front();
  }
}

void WindowedKeyCountOperator::ProcessBatch(BatchContext* ctx,
                                            const std::vector<Tuple>& inputs) {
  Evict(ctx->batch_index());
  KeyCounts added;
  for (const Tuple& t : inputs) {
    FindOrInsert(added, t.key) += 1;
    FindOrInsert(counts_, t.key) += 1;
  }
  for (const auto& [key, delta] : added) {
    (void)delta;
    ctx->Emit(key, counts_[key]);
  }
  slices_.emplace_back(ctx->batch_index(), std::move(added));
}

StatusOr<std::string> WindowedKeyCountOperator::SnapshotState() {
  BinaryWriter w;
  w.PutU64(slices_.size());
  for (const auto& [batch, added] : slices_) {
    w.PutI64(batch);
    w.PutU64(added.size());
    for (const auto& [key, count] : added) {
      w.PutString(key);
      w.PutI64(count);
    }
  }
  return std::move(w).data();
}

Status WindowedKeyCountOperator::RestoreState(const std::string& snapshot) {
  BinaryReader r(snapshot);
  slices_.clear();
  counts_.clear();
  PPA_ASSIGN_OR_RETURN(uint64_t slices, r.GetU64());
  for (uint64_t i = 0; i < slices; ++i) {
    int64_t batch;
    PPA_ASSIGN_OR_RETURN(batch, r.GetI64());
    PPA_ASSIGN_OR_RETURN(uint64_t entries, r.GetU64());
    KeyCounts added;
    for (uint64_t j = 0; j < entries; ++j) {
      PPA_ASSIGN_OR_RETURN(std::string key, r.GetString());
      PPA_ASSIGN_OR_RETURN(int64_t count, r.GetI64());
      counts_[key] += count;
      added.emplace(std::move(key), count);
    }
    slices_.emplace_back(batch, std::move(added));
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in key-count snapshot");
  }
  return OkStatus();
}

void WindowedKeyCountOperator::Reset() {
  slices_.clear();
  counts_.clear();
}

int64_t WindowedKeyCountOperator::StateSizeTuples() const {
  int64_t total = 0;
  for (const auto& [batch, added] : slices_) {
    (void)batch;
    total += static_cast<int64_t>(added.size());
  }
  return total;
}

SymmetricWindowJoinOperator::SymmetricWindowJoinOperator(
    int64_t window_batches, Classifier is_left, Combiner combine)
    : window_batches_(window_batches),
      is_left_(std::move(is_left)),
      combine_(combine != nullptr
                   ? std::move(combine)
                   : [](int64_t a, int64_t b) { return a + b; }) {}

void SymmetricWindowJoinOperator::Evict(int64_t current_batch) {
  for (Side* side : {&left_, &right_}) {
    for (auto it = side->begin(); it != side->end();) {
      auto& entries = it->second;
      entries.erase(
          std::remove_if(entries.begin(), entries.end(),
                         [&](const Entry& e) {
                           return e.batch <= current_batch - window_batches_;
                         }),
          entries.end());
      if (entries.empty()) {
        it = side->erase(it);
      } else {
        ++it;
      }
    }
  }
}

void SymmetricWindowJoinOperator::ProcessBatch(
    BatchContext* ctx, const std::vector<Tuple>& inputs) {
  const int64_t b = ctx->batch_index();
  Evict(b);
  for (const Tuple& t : inputs) {
    const bool left = is_left_(t);
    Side& own = left ? left_ : right_;
    Side& other = left ? right_ : left_;
    auto match = other.find(t.key.view());
    if (match != other.end()) {
      for (const Entry& e : match->second) {
        const int64_t value = left ? combine_(t.value, e.value)
                                   : combine_(e.value, t.value);
        ctx->Emit(t.key, value);
      }
    }
    FindOrInsert(own, t.key).push_back(Entry{b, t.value});
  }
}

std::string SymmetricWindowJoinOperator::SnapshotSide(const Side& side) {
  BinaryWriter w;
  w.PutU64(side.size());
  for (const auto& [key, entries] : side) {
    w.PutString(key);
    w.PutU64(entries.size());
    for (const Entry& e : entries) {
      w.PutI64(e.batch);
      w.PutI64(e.value);
    }
  }
  return std::move(w).data();
}

Status SymmetricWindowJoinOperator::RestoreSide(const std::string& blob,
                                                Side* side) {
  BinaryReader r(blob);
  side->clear();
  PPA_ASSIGN_OR_RETURN(uint64_t keys, r.GetU64());
  for (uint64_t i = 0; i < keys; ++i) {
    PPA_ASSIGN_OR_RETURN(std::string key, r.GetString());
    PPA_ASSIGN_OR_RETURN(uint64_t entries, r.GetU64());
    if (entries > r.remaining() / (2 * sizeof(int64_t))) {
      return OutOfRange("join entry count exceeds buffer");
    }
    std::vector<Entry> list;
    list.reserve(entries);
    for (uint64_t j = 0; j < entries; ++j) {
      Entry e;
      PPA_ASSIGN_OR_RETURN(e.batch, r.GetI64());
      PPA_ASSIGN_OR_RETURN(e.value, r.GetI64());
      list.push_back(e);
    }
    (*side)[std::move(key)] = std::move(list);
  }
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in join side snapshot");
  }
  return OkStatus();
}

StatusOr<std::string> SymmetricWindowJoinOperator::SnapshotState() {
  BinaryWriter w;
  w.PutString(SnapshotSide(left_));
  w.PutString(SnapshotSide(right_));
  return std::move(w).data();
}

Status SymmetricWindowJoinOperator::RestoreState(const std::string& snapshot) {
  BinaryReader r(snapshot);
  PPA_ASSIGN_OR_RETURN(std::string left, r.GetString());
  PPA_ASSIGN_OR_RETURN(std::string right, r.GetString());
  if (!r.exhausted()) {
    return InvalidArgument("trailing bytes in join snapshot");
  }
  PPA_RETURN_IF_ERROR(RestoreSide(left, &left_));
  return RestoreSide(right, &right_);
}

void SymmetricWindowJoinOperator::Reset() {
  left_.clear();
  right_.clear();
}

int64_t SymmetricWindowJoinOperator::StateSizeTuples() const {
  int64_t total = 0;
  for (const Side* side : {&left_, &right_}) {
    for (const auto& [key, entries] : *side) {
      total += static_cast<int64_t>(entries.size());
    }
  }
  return total;
}

}  // namespace ppa
