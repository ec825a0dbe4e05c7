#ifndef PPA_ENGINE_SERDE_H_
#define PPA_ENGINE_SERDE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/status.h"
#include "common/status_or.h"
#include "engine/tuple.h"

namespace ppa {

/// Wire layout of one tuple, the unit of checkpoint state and output
/// buffers: u64 key length, the key bytes, then i64 value, i64 batch,
/// u64 seq and i64 producer. kTupleFixedBytes is everything but the key.
inline constexpr size_t kTupleFixedBytes = 5 * sizeof(int64_t);

/// Bytes EncodeTuplesAt writes for `tuples`.
inline size_t EncodedTupleBytes(const std::vector<Tuple>& tuples) {
  size_t bytes = kTupleFixedBytes * tuples.size();
  for (const Tuple& t : tuples) {
    bytes += t.key.size();
  }
  return bytes;
}

/// Stores `v` at `out` in BinaryWriter's fixed-width layout and returns
/// the byte after it.
template <typename T>
char* StoreAt(char* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out, &v, sizeof(v));
  return out + sizeof(v);
}

/// A string of `bytes` bytes, all of which `write(data)` must fill: the
/// storage is allocated once and not zero-filled first.
template <typename Write>
std::string EncodeBlob(size_t bytes, const Write& write) {
  std::string blob;
  blob.resize_and_overwrite(bytes, [&](char* data, size_t) {
    write(data);
    // Not the size argument: GCC 12's libstdc++ passes the grown capacity
    // there when a short string reallocates.
    return bytes;
  });
  return blob;
}

/// Writes every tuple of `tuples` at `out` in the tuple wire layout (the
/// count is the caller's to write) and returns the byte after them.
/// `bytes` is what they encode to (EncodedTupleBytes), which callers keep
/// with their batches and slices. Only [out, out + bytes) is written, so
/// calls on disjoint ranges of one buffer may run concurrently. Fixed-width
/// stores: each key is copied at its full TupleKey::kCapacity while that
/// many bytes of the range remain, so the copy has a constant size and the
/// following fields overwrite its tail, and at its exact length near the
/// end. Tuples that do not encode to exactly `bytes` are a fatal check.
inline char* EncodeTuplesAt(const std::vector<Tuple>& tuples, size_t bytes,
                            char* out) {
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
  return end;
}

/// A checkpoint encode runs in at most kMaxEncodeParts parts of at least
/// kMinEncodePartBytes each, so a blob under 128 KiB is one inline part.
inline constexpr size_t kMaxEncodeParts = 16;
inline constexpr size_t kMinEncodePartBytes = size_t{64} << 10;

/// One record of an encoded run: `words` header words, then `*tuples`.
/// `bytes` is the whole record's encoded size, header included, which the
/// caller keeps with the record, so a run is split without reading a tuple.
struct EncodedRecord {
  std::array<int64_t, 4> header{};
  size_t words = 0;
  const std::vector<Tuple>* tuples = nullptr;
  size_t bytes = 0;
};

namespace serde_internal {

/// The parts of one EncodeRunAt call, planned from the cached sizes.
template <typename It, typename RecordFn>
class RunEncoder {
 public:
  RunEncoder(std::string_view head, char* head_out, It first, It last,
             size_t records_bytes, char* records_out, const RecordFn& record)
      : head_(head),
        head_out_(head_out),
        records_out_(records_out),
        record_(record) {
    const size_t total = head.size() + records_bytes;
    n_ = std::clamp<size_t>(total / kMinEncodePartBytes, 1, kMaxEncodeParts);
    // Part k covers bytes [k * total / n, (k + 1) * total / n) of the run:
    // the head splits at any byte, a record goes to the part its first
    // byte falls in.
    for (size_t k = 0; k < n_; ++k) {
      parts_[k].head_begin = std::min(head.size(), k * total / n_);
      parts_[k].head_end = std::min(head.size(), (k + 1) * total / n_);
    }
    size_t k = 0;
    size_t offset = 0;
    parts_[0].first = first;
    for (It it = first; it != last; ++it) {
      while (k + 1 < n_ && (k + 1) * total / n_ <= head.size() + offset) {
        parts_[k].last = it;
        parts_[++k].first = it;
        parts_[k].offset = offset;
      }
      offset += record(*it).bytes;
    }
    parts_[k].last = last;
    while (++k < n_) {  // parts that start past the last record
      parts_[k].first = last;
      parts_[k].last = last;
      parts_[k].offset = offset;
    }
    PPA_CHECK(offset == records_bytes)
        << "records encode to " << offset << " bytes, presized "
        << records_bytes;
  }

  size_t parts() const { return n_; }

  /// Writes part `k`: its share of the head, then its records.
  void RunPart(size_t k) const {
    const Part& p = parts_[k];
    if (p.head_end > p.head_begin) {
      std::memcpy(head_out_ + p.head_begin, head_.data() + p.head_begin,
                  p.head_end - p.head_begin);
    }
    char* out = records_out_ + p.offset;
    for (It it = p.first; it != p.last; ++it) {
      const EncodedRecord r = record_(*it);
      const size_t header_bytes = r.words * sizeof(int64_t);
      std::memcpy(out, r.header.data(), header_bytes);
      out = EncodeTuplesAt(*r.tuples, r.bytes - header_bytes,
                           out + header_bytes);
    }
  }

 private:
  struct Part {
    size_t head_begin = 0;
    size_t head_end = 0;
    It first{};
    It last{};
    /// Where `first` starts, from records_out_.
    size_t offset = 0;
  };

  std::string_view head_;
  char* head_out_;
  char* records_out_;
  const RecordFn& record_;
  size_t n_ = 1;
  std::array<Part, kMaxEncodeParts> parts_{};
};

}  // namespace serde_internal

/// Encodes one run into presized storage, in up to kMaxEncodeParts
/// ParallelFor parts: `head` is copied to `head_out`, and the records
/// [first, last) are written back to back from `records_out`, each as
/// `record(*it)` describes it. `records_bytes` is their total cached size;
/// with head.size() it fixes the number of parts, and one walk over the
/// cached sizes (no tuple is read) gives each part its byte range, so the
/// parts write disjoint bytes and may run on any thread. On the sim, and
/// wherever ParallelFor is a plain loop, the parts run inline in index
/// order; the bytes are the same either way. Allocates nothing: the parts
/// table is on the stack. Records that do not add up to `records_bytes`
/// are a fatal check.
template <typename It, typename RecordFn>
void EncodeRunAt(std::string_view head, char* head_out, It first, It last,
                 size_t records_bytes, char* records_out,
                 const RecordFn& record) {
  const serde_internal::RunEncoder<It, RecordFn> run(
      head, head_out, first, last, records_bytes, records_out, record);
  if (run.parts() == 1) {
    run.RunPart(0);
    return;
  }
  // One captured reference keeps the std::function in its inline buffer.
  ParallelFor(run.parts(), [&run](size_t k) { run.RunPart(k); });
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

  /// Appends `count` tuples written by EncodeTuplesAt to `out`.
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
