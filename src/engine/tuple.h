#ifndef PPA_ENGINE_TUPLE_H_
#define PPA_ENGINE_TUPLE_H_

#include <charconv>
#include <compare>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/sim_time.h"
#include "topology/types.h"

namespace ppa {

/// A tuple's key, held inline so that Tuple stays trivially copyable: up
/// to kCapacity bytes plus a length byte, read as a std::string_view.
/// Assigning a longer key is fatal (a PPA_CHECK naming the length); a key
/// is never truncated. Every in-repo key is a short prefix plus an
/// integer ("k17", "url3", "s5", "inc2").
class TupleKey {
 public:
  static constexpr size_t kCapacity = 35;

  /// `prefix` followed by the decimal digits of `n`, formatted straight
  /// into the key's buffer.
  static TupleKey Numbered(std::string_view prefix, int64_t n) {
    TupleKey key;
    key = prefix;
    char* const end = key.data_ + kCapacity;
    const std::to_chars_result r = std::to_chars(key.data_ + key.size_, end, n);
    PPA_CHECK(r.ec == std::errc())
        << "tuple key '" << prefix << n << "' exceeds " << kCapacity
        << " bytes";
    key.size_ = static_cast<uint8_t>(r.ptr - key.data_);
    return key;
  }

  TupleKey& operator=(std::string_view s) {
    PPA_CHECK(s.size() <= kCapacity)
        << "tuple key of " << s.size() << " bytes exceeds " << kCapacity;
    std::memcpy(data_, s.data(), s.size());
    size_ = static_cast<uint8_t>(s.size());
    return *this;
  }

  size_t size() const { return size_; }
  const char* data() const { return data_; }
  std::string_view view() const { return std::string_view(data_, size_); }
  operator std::string_view() const { return view(); }
  std::string str() const { return std::string(data_, size_); }

  friend bool operator==(const TupleKey& a, const TupleKey& b) {
    return a.view() == b.view();
  }
  friend bool operator==(const TupleKey& a, std::string_view b) {
    return a.view() == b;
  }
  friend std::strong_ordering operator<=>(const TupleKey& a,
                                          const TupleKey& b) {
    return a.view() <=> b.view();
  }
  friend std::strong_ordering operator<=>(const TupleKey& a,
                                          std::string_view b) {
    return a.view() <=> b;
  }
  friend std::ostream& operator<<(std::ostream& os, const TupleKey& key) {
    return os << key.view();
  }

 private:
  char data_[kCapacity] = {};
  uint8_t size_ = 0;
};

/// A data item (Sec. II-A): a string key plus an opaque 64-bit value
/// payload. The engine adds provenance fields used for batching, routing,
/// replay, and duplicate elimination. The fields are ordered so the tuple
/// packs into 64 bytes, and every copy on the data path is a memcpy.
struct Tuple {
  int64_t value = 0;

  /// Index of the batch this tuple belongs to.
  int64_t batch = 0;
  /// Per-producer monotonically increasing sequence number; consumers use
  /// it to skip duplicates replayed after a recovery or replica takeover
  /// (Sec. V-B).
  uint64_t seq = 0;
  /// Task that produced the tuple (kInvalidTaskId for raw source input).
  TaskId producer = kInvalidTaskId;

  TupleKey key;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.key == b.key && a.value == b.value && a.batch == b.batch &&
           a.seq == b.seq && a.producer == b.producer;
  }
};

static_assert(std::is_trivially_copyable_v<Tuple>,
              "a Tuple copy must be a memcpy");
static_assert(sizeof(Tuple) == 64, "a Tuple must stay one cache line");

/// Returns the value `map` holds for `key`, inserting a value-initialized
/// one first if there is none. `map` is an ordered map from std::string
/// with a transparent comparator (std::less<>), so a hit never builds a
/// string; only an insert does.
template <typename Map>
typename Map::mapped_type& FindOrInsert(Map& map, std::string_view key) {
  auto it = map.lower_bound(key);
  if (it == map.end() || it->first != key) {
    it = map.emplace_hint(it, std::string(key), typename Map::mapped_type{});
  }
  return it->second;
}

/// The output of one task for one batch, retained in the task's output
/// buffer until trimmed by the checkpoint protocol. Carries the batch's
/// latency lineage: the sim-time the batch's data entered the topology
/// at a source and the number of task hops it crossed to get here, so a
/// sink can attribute end-to-end latency without re-walking the DAG.
struct BatchOutput {
  int64_t batch = 0;
  std::vector<Tuple> tuples;
  /// Source-ingest sim-time of this batch's lineage: the nominal tick
  /// time at the sources for stable in-tick processing, which replayed
  /// or recovered batches keep, so late deliveries show their true age.
  TimePoint ingest_at = TimePoint::Zero();
  /// Task hops from the source (sources emit with hops == 1).
  int32_t hops = 0;
  /// Bytes this batch takes in a checkpoint, header included; kept by the
  /// TaskRuntime that buffers the batch, so buffer changes are O(1).
  uint32_t encoded_bytes = 0;
};

// The job's buffered-bytes estimate multiplies by this size, so
// encoded_bytes sits in the padding after `hops`.
static_assert(sizeof(BatchOutput) == 48, "a BatchOutput must stay 48 bytes");

}  // namespace ppa

#endif  // PPA_ENGINE_TUPLE_H_
