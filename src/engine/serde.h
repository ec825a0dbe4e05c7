#ifndef PPA_ENGINE_SERDE_H_
#define PPA_ENGINE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "common/status_or.h"
#include "engine/tuple.h"

namespace ppa {

/// Wire layout of one tuple, the unit of checkpoint state and output
/// buffers: u64 key length, the key bytes, then i64 value, i64 batch,
/// u64 seq and i64 producer. kTupleFixedBytes is everything but the key.
inline constexpr size_t kTupleFixedBytes = 5 * sizeof(int64_t);

/// Bytes BinaryWriter::PutTuples writes for `tuples`.
inline size_t EncodedTupleBytes(const std::vector<Tuple>& tuples) {
  size_t bytes = kTupleFixedBytes * tuples.size();
  for (const Tuple& t : tuples) {
    bytes += t.key.size();
  }
  return bytes;
}

/// Minimal binary serialization used for operator state snapshots and
/// checkpoints. Fixed-width little-endian encoding; values are written and
/// read in the same order (no schema, no versioning — checkpoints never
/// outlive the process in this simulation).
class BinaryWriter {
 public:
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(std::string_view s) {
    PutU64(s.size());
    data_.append(s.data(), s.size());
  }

  /// Appends every tuple of `tuples` in the tuple wire layout (the count
  /// is the caller's to write). `bytes` is what they encode to
  /// (EncodedTupleBytes), which callers keep with their batches and slices.
  /// One zero-filled resize, then fixed-width stores: each key is copied at
  /// its full TupleKey::kCapacity while that many bytes remain, so the copy
  /// has a constant size and the following fields overwrite its tail, and
  /// at its exact length near the end.
  void PutTuples(const std::vector<Tuple>& tuples, size_t bytes) {
    const size_t start = data_.size();
    data_.resize(start + bytes);
    char* out = data_.data() + start;
    char* const end = out + bytes;
    size_t written = 0;
    for (const Tuple& t : tuples) {
      const uint64_t key_size = t.key.size();
      const size_t left = static_cast<size_t>(end - out);
      if (left < kTupleFixedBytes + key_size) {
        break;  // `bytes` is short; the check below reports it
      }
      std::memcpy(out, &key_size, sizeof(key_size));
      out += sizeof(key_size);
      if (left >= sizeof(key_size) + TupleKey::kCapacity) {
        std::memcpy(out, t.key.data(), TupleKey::kCapacity);
      } else {
        std::memcpy(out, t.key.data(), key_size);
      }
      out += key_size;
      const int64_t fixed[4] = {t.value, t.batch, static_cast<int64_t>(t.seq),
                                t.producer};
      std::memcpy(out, fixed, sizeof(fixed));
      out += sizeof(fixed);
      ++written;
    }
    PPA_CHECK(written == tuples.size() && out == end)
        << tuples.size() << " tuples do not encode to the presized " << bytes
        << " bytes";
  }

  /// Pre-sizes the buffer for `n` more bytes, so a writer that knows its
  /// final size allocates once instead of doubling through the appends.
  void Reserve(size_t n) { data_.reserve(data_.size() + n); }

  size_t size() const { return data_.size(); }
  const std::string& data() const& { return data_; }
  std::string data() && { return std::move(data_); }

 private:
  void PutRaw(const void* p, size_t n) {
    data_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string data_;
};

/// Reader counterpart of BinaryWriter. All getters return OutOfRange on a
/// truncated buffer.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  StatusOr<uint64_t> GetU64() {
    uint64_t v = 0;
    PPA_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  StatusOr<int64_t> GetI64() {
    int64_t v = 0;
    PPA_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  StatusOr<double> GetDouble() {
    double v = 0;
    PPA_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
  StatusOr<std::string> GetString() {
    PPA_ASSIGN_OR_RETURN(uint64_t n, GetU64());
    if (n > data_.size() - pos_) {
      return OutOfRange("truncated string");
    }
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Appends `count` tuples written by BinaryWriter::PutTuples to `out`.
  /// A count that cannot fit in the remaining bytes is rejected before
  /// anything is reserved, so a corrupt count fails instead of allocating.
  /// A stored key longer than TupleKey::kCapacity is OutOfRange, found
  /// before its tuple is appended.
  Status GetTuples(uint64_t count, std::vector<Tuple>* out) {
    if (count > remaining() / kTupleFixedBytes) {
      return OutOfRange("tuple count exceeds buffer");
    }
    out->reserve(out->size() + count);
    for (uint64_t i = 0; i < count; ++i) {
      // The key length and the fixed fields must fit, then the key.
      const size_t left = remaining();
      uint64_t key_size = 0;
      if (left >= kTupleFixedBytes) {
        std::memcpy(&key_size, data_.data() + pos_, sizeof(key_size));
      }
      if (left < kTupleFixedBytes || key_size > left - kTupleFixedBytes) {
        return OutOfRange("truncated tuple");
      }
      if (key_size > TupleKey::kCapacity) {
        return OutOfRange("stored tuple key of " + std::to_string(key_size) +
                          " bytes exceeds " +
                          std::to_string(TupleKey::kCapacity));
      }
      const char* in = data_.data() + pos_ + sizeof(key_size);
      Tuple& t = out->emplace_back();
      t.key = std::string_view(in, key_size);
      in += key_size;
      int64_t fixed[4] = {};
      std::memcpy(fixed, in, sizeof(fixed));
      t.value = fixed[0];
      t.batch = fixed[1];
      t.seq = static_cast<uint64_t>(fixed[2]);
      t.producer = static_cast<TaskId>(fixed[3]);
      pos_ += kTupleFixedBytes + key_size;
    }
    return OkStatus();
  }

  /// Bytes not yet consumed.
  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

  /// True when the whole buffer has been consumed.
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  Status GetRaw(void* p, size_t n) {
    if (n > data_.size() - pos_) {
      return OutOfRange("truncated buffer");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return OkStatus();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace ppa

#endif  // PPA_ENGINE_SERDE_H_
