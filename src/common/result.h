// Result<T>: value-or-Status, the return type of fallible producers.

#ifndef MMV_COMMON_RESULT_H_
#define MMV_COMMON_RESULT_H_

#include <optional>
#include <utility>

#include "common/status.h"

namespace mmv {

namespace internal {
/// \brief Prints "<what>: <status>" to stderr and aborts: the cold path of
/// Result's checked accessors, out of line so each stays one branch.
[[noreturn, gnu::cold]] void ResultAbort(const char* what,
                                         const Status& status);
}  // namespace internal

/// \brief Holds either a value of type T or an error Status.
///
/// Mirrors arrow::Result. Use MMV_ASSIGN_OR_RETURN to unwrap inside
/// Status-returning functions. Misuse aborts in every build: unwrapping an
/// error Result, or building an error Result from an OK status.
template <typename T>
class Result {
 public:
  /// Constructs from a value (implicit, enables `return value;`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from an error status. \p status must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      internal::ResultAbort("Result built from an OK status", status_);
    }
  }

  /// \brief True iff a value is held.
  bool ok() const { return value_.has_value(); }

  /// \brief The status: OK when a value is held.
  const Status& status() const { return status_; }

  /// \brief Access the held value; aborts if !ok().
  const T& ValueOrDie() const& {
    CheckOk();
    return *value_;
  }
  T& ValueOrDie() & {
    CheckOk();
    return *value_;
  }
  T ValueOrDie() && {
    CheckOk();
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// \brief Returns the value or \p alternative when in error state.
  T ValueOr(T alternative) const {
    return ok() ? *value_ : std::move(alternative);
  }

 private:
  void CheckOk() const {
    if (!ok()) internal::ResultAbort("ValueOrDie on an error Result", status_);
  }

  std::optional<T> value_;
  Status status_;  // OK iff value_ set
};

/// Unwraps a Result into `lhs`, returning the error status on failure.
#define MMV_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                              \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).ValueOrDie();

#define MMV_ASSIGN_OR_RETURN(lhs, expr) \
  MMV_ASSIGN_OR_RETURN_IMPL(            \
      MMV_CONCAT_(_mmv_result_, __LINE__), lhs, expr)

#define MMV_CONCAT_INNER_(a, b) a##b
#define MMV_CONCAT_(a, b) MMV_CONCAT_INNER_(a, b)

}  // namespace mmv

#endif  // MMV_COMMON_RESULT_H_
