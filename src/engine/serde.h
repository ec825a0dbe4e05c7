#ifndef PPA_ENGINE_SERDE_H_
#define PPA_ENGINE_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/status_or.h"

namespace ppa {

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

  /// Pre-sizes the buffer for `n` more bytes, so a writer that knows its
  /// final size allocates once instead of doubling through the appends.
  void Reserve(size_t n) { data_.reserve(data_.size() + n); }

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
