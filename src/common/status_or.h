#ifndef PPA_COMMON_STATUS_OR_H_
#define PPA_COMMON_STATUS_OR_H_

#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/status.h"

namespace ppa {

/// Holds either a value of type T or a non-OK Status explaining why the
/// value is absent. The usual accessor discipline applies: check ok() (or
/// status()) before calling value(). Marked [[nodiscard]]: silently
/// dropping a StatusOr discards both the value and the error.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Constructs from a non-OK status. Passing an OK status is a programming
  /// error and is converted to an Internal error.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    if (status_.ok()) {
      status_ = Internal("StatusOr constructed with OK status but no value");
    }
  }

  /// Constructs from a value; the status is OK.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;

  /// True iff a value is present.
  [[nodiscard]] bool ok() const { return value_.has_value(); }

  /// The status: OK iff a value is present.
  [[nodiscard]] const Status& status() const { return status_; }

  /// The contained value. Terminates the program if no value is present.
  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHasValue() const {
    if (!value_.has_value()) {
      PPA_LOG(Fatal) << "StatusOr::value() called on error: "
                     << status_.ToString();
    }
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace ppa

/// Evaluates `rexpr` (a StatusOr<T> expression); on error returns the status
/// from the enclosing function, otherwise move-assigns the value into `lhs`.
#define PPA_ASSIGN_OR_RETURN(lhs, rexpr)               \
  PPA_ASSIGN_OR_RETURN_IMPL_(                          \
      PPA_STATUS_MACRO_CONCAT_(ppa_statusor_, __LINE__), lhs, rexpr)

#define PPA_ASSIGN_OR_RETURN_IMPL_(statusor, lhs, rexpr) \
  auto statusor = (rexpr);                               \
  if (!statusor.ok()) {                                  \
    return statusor.status();                            \
  }                                                      \
  lhs = std::move(statusor).value()

#define PPA_STATUS_MACRO_CONCAT_INNER_(x, y) x##y
#define PPA_STATUS_MACRO_CONCAT_(x, y) PPA_STATUS_MACRO_CONCAT_INNER_(x, y)

#endif  // PPA_COMMON_STATUS_OR_H_
