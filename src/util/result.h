#ifndef GKNN_UTIL_RESULT_H_
#define GKNN_UTIL_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "util/status.h"

namespace gknn::util {

/// Result<T> holds either a value of type T or an error Status.
///
/// [[nodiscard]] like Status: a Result-returning call whose value *and*
/// error are both ignored is a compile error (and a gknn_check finding).
///
/// Usage:
///   Result<Graph> r = LoadGraph(path);
///   if (!r.ok()) return r.status();
///   Graph g = std::move(r).ValueOrDie();
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs a Result holding a value (implicit on purpose so functions
  /// can `return value;`).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs a Result holding an error (implicit on purpose so functions
  /// can `return Status::...;`). Must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  Result(const Result&) = default;
  Result& operator=(const Result&) = default;
  Result(Result&&) = default;
  Result& operator=(Result&&) = default;

  bool ok() const { return value_.has_value(); }

  /// The error status; Status::OK() when a value is held.
  const Status& status() const { return status_; }

  /// Value accessors. Must only be called when ok().
  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace gknn::util

/// Assigns the value of a Result expression to `lhs`, or returns its error
/// status from the enclosing function.
#define GKNN_ASSIGN_OR_RETURN(lhs, rexpr)            \
  GKNN_ASSIGN_OR_RETURN_IMPL_(                       \
      GKNN_RESULT_CONCAT_(_gknn_result_, __LINE__), lhs, rexpr)

#define GKNN_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).ValueOrDie()

#define GKNN_RESULT_CONCAT_(a, b) GKNN_RESULT_CONCAT_2_(a, b)
#define GKNN_RESULT_CONCAT_2_(a, b) a##b

#endif  // GKNN_UTIL_RESULT_H_
