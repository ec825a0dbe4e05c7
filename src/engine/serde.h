#ifndef PPA_ENGINE_SERDE_H_
#define PPA_ENGINE_SERDE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
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

/// Checkpoint wire format v2. A tuple is written as its u8 key length, the
/// key bytes and its i64 value. Its batch, seq and producer are not
/// written per tuple: they follow from the tuple's run, a sequence of
/// tuples from one producer and one batch whose seqs are consecutive. A
/// buffered output batch is one run that the reader derives from the batch
/// index and the task, since TaskRuntime::RunBatch stamps exactly those
/// fields (the deterministic sequence numbers of Sec. V-B). A window slice
/// writes its runs, each a header naming the run once, then its tuples.
/// kTupleFixedBytes is everything of a tuple but its key, so it is also
/// the fewest bytes a tuple takes.
inline constexpr size_t kTupleFixedBytes = sizeof(uint8_t) + sizeof(int64_t);

/// Encoded bytes of a run header: i32 producer, u32 tuple count, i64 batch
/// and u64 first seq.
inline constexpr size_t kRunHeaderBytes =
    sizeof(int32_t) + sizeof(uint32_t) + sizeof(int64_t) + sizeof(uint64_t);
static_assert(sizeof(TaskId) == sizeof(int32_t),
              "a run header stores the producer as an i32");

/// What the tuples of one run share: tuple i of the run has `producer`,
/// `batch` and seq first_seq + i.
struct TupleRun {
  TaskId producer = kInvalidTaskId;
  int64_t batch = 0;
  uint64_t first_seq = 0;
};

/// True if `next` extends the run that `prev` ends.
inline bool ContinuesRun(const Tuple& prev, const Tuple& next) {
  return next.producer == prev.producer && next.batch == prev.batch &&
         next.seq == prev.seq + 1;
}

/// Bytes EncodeTuplesAt writes for `tuples`.
inline size_t EncodedTupleBytes(std::span<const Tuple> tuples) {
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

namespace serde_internal {

/// The fatal check of EncodeTuplesAt: `written` of `tuples` fit before the
/// end, and `stray` is nonzero if one of them did not derive from `run`.
/// Out of line, so the encoders stay small enough to inline.
void FailTupleEncode(size_t tuples, size_t written, uint64_t stray,
                     const TupleRun& run);

/// The fatal check of EncodeRunsAt: `tuples` did not encode to `runs`.
void FailRunEncode(size_t tuples, size_t runs);

/// The OutOfRange statuses of BinaryReader's tuple reads, out of line.
Status KeyOverCapacity(size_t key_size);
Status RunsCannotHold(uint64_t runs, uint64_t count);
Status RunLongerThanLeft(uint32_t n, uint64_t left);
Status RunsCoverTooFew(uint64_t covered, uint64_t count);

}  // namespace serde_internal

/// Writes the key and value of every tuple of `tuples` at `out` (the count
/// and the run are the caller's to write) and returns the byte after them.
/// Nothing at or past `end` is written, so calls on disjoint ranges of one
/// buffer may run concurrently. Fixed-width stores: each key is copied at
/// its full TupleKey::kCapacity while that many bytes remain before `end`,
/// so the copy has a constant size and the value and whatever the caller
/// writes next overwrite its tail, and at its exact length near `end`. So
/// that only the last tuples of a range take the exact-length copy, `end`
/// is the end of all the caller writes in order, not of these tuples.
/// Tuples that do not fit before `end`, or whose batch, seq or producer do
/// not derive from `run`, are a fatal check. The derivation is folded
/// without a branch from fields in the cache line the key copy already
/// reads.
inline char* EncodeTuplesAt(std::span<const Tuple> tuples,
                            const TupleRun& run, char* out,
                            const char* end) {
  uint64_t stray = 0;
  size_t written = 0;
  for (const Tuple& t : tuples) {
    const size_t key_size = t.key.size();
    const size_t left = static_cast<size_t>(end - out);
    if (left < kTupleFixedBytes + key_size) {
      break;  // the check below reports it
    }
    stray |= static_cast<uint64_t>(t.batch ^ run.batch) |
             (t.seq ^ (run.first_seq + written)) |
             static_cast<uint32_t>(t.producer ^ run.producer);
    *out++ = static_cast<char>(key_size);
    if (left >= 1 + TupleKey::kCapacity) {
      std::memcpy(out, t.key.data(), TupleKey::kCapacity);
    } else {
      std::memcpy(out, t.key.data(), key_size);
    }
    out = StoreAt(out + key_size, t.value);
    ++written;
  }
  if (written != tuples.size() || stray != 0) {
    serde_internal::FailTupleEncode(tuples.size(), written, stray, run);
  }
  return out;
}

/// Writes `tuples`, one run, at `out` as its run header and then its
/// tuples by EncodeTuplesAt, and returns the byte after them; nothing at or
/// past `end` is written. A non-empty `tuples` that is not one run, or a
/// header that does not fit before `end`, is a fatal check.
inline char* EncodeTupleRunAt(std::span<const Tuple> tuples, char* out,
                              const char* end) {
  if (tuples.empty() || static_cast<size_t>(end - out) < kRunHeaderBytes) {
    serde_internal::FailRunEncode(tuples.size(), 1);
  }
  const Tuple& head = tuples.front();
  out = StoreAt(out, head.producer);
  out = StoreAt(out, static_cast<uint32_t>(tuples.size()));
  out = StoreAt(out, head.batch);
  out = StoreAt(out, head.seq);
  return EncodeTuplesAt(tuples, TupleRun{head.producer, head.batch, head.seq},
                        out, end);
}

/// Writes `tuples` at `out` as `runs` runs by EncodeTupleRunAt and returns
/// the byte after them; nothing at or past `end` is written. `runs` is the
/// number of maximal runs in `tuples`, which callers keep with their
/// tuples (WindowSlice::runs): the last run takes every tuple left without
/// a search for its end, so a single run is written with no comparison
/// between tuples. A `runs` that is not the run count is a fatal check.
inline char* EncodeRunsAt(std::span<const Tuple> tuples, size_t runs,
                          char* out, const char* end) {
  if (runs == 1) {
    return EncodeTupleRunAt(tuples, out, end);
  }
  if ((runs == 0) != tuples.empty()) {
    serde_internal::FailRunEncode(tuples.size(), runs);
  }
  size_t first = 0;
  for (size_t r = 1; r < runs && first < tuples.size(); ++r) {
    size_t last = first + 1;
    while (last < tuples.size() &&
           ContinuesRun(tuples[last - 1], tuples[last])) {
      ++last;
    }
    out = EncodeTupleRunAt(tuples.subspan(first, last - first), out, end);
    first = last;
  }
  return runs == 0 ? out : EncodeTupleRunAt(tuples.subspan(first), out, end);
}

/// A checkpoint encode runs in at most kMaxEncodeParts parts of at least
/// kMinEncodePartBytes each, so a blob under 40 KiB is one inline part.
/// A part covers about 1,500 Fig. 6 tuples, at about 13 bytes each (a
/// 3.9-byte key on average, plus kTupleFixedBytes): the tuple count a part
/// covered when a tuple took 44 bytes and the floor was 64 KiB, so a part
/// does as many tuple reads as it did then.
inline constexpr size_t kMaxEncodeParts = 16;
inline constexpr size_t kMinEncodePartBytes = size_t{20} << 10;

namespace serde_internal {

/// The parts of one EncodeRunAt call, planned from the cached sizes.
template <typename It, typename BytesFn, typename WriteFn>
class RunEncoder {
 public:
  RunEncoder(std::string_view head, char* head_out, It first, It last,
             size_t records_bytes, char* records_out, const BytesFn& bytes_of,
             const WriteFn& write)
      : head_(head),
        head_out_(head_out),
        records_out_(records_out),
        bytes_of_(bytes_of),
        write_(write) {
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
      offset += bytes_of(*it);
    }
    parts_[k].last = last;
    while (++k < n_) {  // parts that start past the last record
      parts_[k].first = last;
      parts_[k].last = last;
      parts_[k].offset = offset;
    }
    for (k = 0; k < n_; ++k) {
      parts_[k].end = k + 1 < n_ ? parts_[k + 1].offset : offset;
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
    // A record may store past its own end up to the part's: the next
    // record of the part overwrites those bytes, and no other part owns
    // them.
    char* out = records_out_ + p.offset;
    const char* const part_end = records_out_ + p.end;
    for (It it = p.first; it != p.last; ++it) {
      char* const end = out + bytes_of_(*it);
      const char* const written = write_(*it, out, part_end);
      PPA_CHECK(written == end)
          << "a record of " << (written - out)
          << " bytes does not encode to the presized " << (end - out)
          << " bytes";
      out = end;
    }
  }

 private:
  struct Part {
    size_t head_begin = 0;
    size_t head_end = 0;
    It first{};
    It last{};
    /// Where `first` starts and where the part's records end, from
    /// records_out_.
    size_t offset = 0;
    size_t end = 0;
  };

  std::string_view head_;
  char* head_out_;
  char* records_out_;
  const BytesFn& bytes_of_;
  const WriteFn& write_;
  size_t n_ = 1;
  std::array<Part, kMaxEncodeParts> parts_{};
};

}  // namespace serde_internal

/// Encodes one run of records into presized storage, in up to
/// kMaxEncodeParts ParallelFor parts: `head` is copied to `head_out`, and
/// the records [first, last) are written back to back from `records_out`,
/// each by `write(*it, out, limit)`, which returns the byte after the
/// record and may store scratch bytes past it but not at or past `limit`,
/// the end of the records its part writes. `bytes_of(*it)` is the
/// record's cached size,
/// and `records_bytes` their total; with head.size() it fixes the number
/// of parts, and one walk over the cached sizes (no tuple is read) gives
/// each part its byte range, so the parts write disjoint bytes and may run
/// on any thread. On the sim, and wherever ParallelFor is a plain loop,
/// the parts run inline in index order; the bytes are the same either
/// way. Allocates nothing: the parts table is on the stack. Records that
/// do not add up to `records_bytes`, or one that does not fill its cached
/// size exactly, are a fatal check.
template <typename It, typename BytesFn, typename WriteFn>
void EncodeRunAt(std::string_view head, char* head_out, It first, It last,
                 size_t records_bytes, char* records_out,
                 const BytesFn& bytes_of, const WriteFn& write) {
  const serde_internal::RunEncoder<It, BytesFn, WriteFn> run(
      head, head_out, first, last, records_bytes, records_out, bytes_of,
      write);
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
  void PutU8(uint8_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
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

  StatusOr<uint32_t> GetU32() {
    uint32_t v = 0;
    PPA_RETURN_IF_ERROR(GetRaw(&v, sizeof(v)));
    return v;
  }
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

  /// Appends `count` tuples written by EncodeTuplesAt to `out`, each with
  /// the batch, seq and producer it derives from `run`. A count that
  /// cannot fit in the remaining bytes at kTupleFixedBytes a tuple is
  /// rejected before anything is reserved, so a corrupt count fails
  /// instead of allocating. A stored key longer than TupleKey::kCapacity is
  /// OutOfRange, found before its tuple is appended.
  Status GetTuples(uint64_t count, const TupleRun& run,
                   std::vector<Tuple>* out) {
    if (count > remaining() / kTupleFixedBytes) {
      return OutOfRange("tuple count exceeds buffer");
    }
    out->reserve(out->size() + count);
    return AppendTuples(count, run, out);
  }

  /// Appends `count` tuples written by EncodeRunsAt as `runs` runs to
  /// `out`. OutOfRange, before anything is reserved: no runs for a
  /// non-empty count, more runs than tuples, or run headers and tuples that
  /// cannot fit in the remaining bytes. Then OutOfRange: a truncated run
  /// header, a run of no tuples or of more than the count has left, runs
  /// that cover fewer than `count` tuples, and what GetTuples rejects.
  Status GetRuns(uint64_t count, uint64_t runs, std::vector<Tuple>* out) {
    if ((runs == 0) != (count == 0) || runs > count) {
      return serde_internal::RunsCannotHold(runs, count);
    }
    if (count > remaining() / kTupleFixedBytes ||
        runs * kRunHeaderBytes > remaining() - count * kTupleFixedBytes) {
      return OutOfRange("tuple runs exceed buffer");
    }
    out->reserve(out->size() + count);
    uint64_t left = count;
    for (uint64_t r = 0; r < runs; ++r) {
      if (remaining() < kRunHeaderBytes) {
        return OutOfRange("truncated run header");
      }
      const char* in = data_.data() + pos_;
      TupleRun run;
      uint32_t n = 0;
      std::memcpy(&run.producer, in, sizeof(run.producer));
      std::memcpy(&n, in + 4, sizeof(n));
      std::memcpy(&run.batch, in + 8, sizeof(run.batch));
      std::memcpy(&run.first_seq, in + 16, sizeof(run.first_seq));
      pos_ += kRunHeaderBytes;
      if (n == 0 || n > left) {
        return serde_internal::RunLongerThanLeft(n, left);
      }
      PPA_RETURN_IF_ERROR(AppendTuples(n, run, out));
      left -= n;
    }
    if (left != 0) {
      return serde_internal::RunsCoverTooFew(count - left, count);
    }
    return OkStatus();
  }

  /// Copies the next `n` bytes to `p`: a fixed-width record header in one
  /// bounds check. OutOfRange if fewer remain.
  Status GetBytes(void* p, size_t n) { return GetRaw(p, n); }

  /// Bytes not yet consumed.
  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }

  /// True when the whole buffer has been consumed.
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  /// GetTuples after its count guard, into reserved storage.
  Status AppendTuples(uint64_t count, const TupleRun& run,
                      std::vector<Tuple>* out) {
    for (uint64_t i = 0; i < count; ++i) {
      // The key length and the value must fit, then the key.
      const size_t left = remaining();
      if (left < kTupleFixedBytes) {
        return OutOfRange("truncated tuple");
      }
      const char* in = data_.data() + pos_;
      const size_t key_size = static_cast<uint8_t>(*in++);
      if (key_size > TupleKey::kCapacity) {
        return serde_internal::KeyOverCapacity(key_size);
      }
      if (key_size > left - kTupleFixedBytes) {
        return OutOfRange("truncated tuple");
      }
      Tuple& t = out->emplace_back();
      t.key = std::string_view(in, key_size);
      std::memcpy(&t.value, in + key_size, sizeof(t.value));
      t.batch = run.batch;
      t.seq = run.first_seq + i;
      t.producer = run.producer;
      pos_ += kTupleFixedBytes + key_size;
    }
    return OkStatus();
  }

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
