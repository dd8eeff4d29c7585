#ifndef GKNN_UTIL_STATUS_H_
#define GKNN_UTIL_STATUS_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace gknn::util {

/// Error categories used across the library. Mirrors the Arrow/RocksDB
/// convention of returning a Status object instead of throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kAlreadyExists = 4,
  kResourceExhausted = 5,
  kIoError = 6,
  kInternal = 7,
  kNotImplemented = 8,
  kDeadlineExceeded = 9,
};

/// Returns a human-readable name for a status code ("OK", "Invalid argument",
/// ...).
std::string_view StatusCodeToString(StatusCode code);

/// A Status encodes either success (OK) or an error code plus message.
///
/// The OK state carries no allocation: `rep_` is null, so returning OK from
/// hot paths is free. Statuses are cheap to move and copyable.
///
/// The class is [[nodiscard]]: every expression returning a Status by
/// value must be consumed (checked, returned, or assigned). Dropping one
/// on the floor is a compile error under -Werror and is additionally
/// flagged by gknn_check's status-drop rule, so device errors and bad-argument
/// reports cannot silently vanish.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string message) {
    if (code != StatusCode::kOk) {
      rep_ = std::make_shared<Rep>(Rep{code, std::move(message)});
    }
  }

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return rep_ == nullptr; }
  StatusCode code() const { return rep_ ? rep_->code : StatusCode::kOk; }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsAlreadyExists() const {
    return code() == StatusCode::kAlreadyExists;
  }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsIoError() const { return code() == StatusCode::kIoError; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsNotImplemented() const {
    return code() == StatusCode::kNotImplemented;
  }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }

  /// The error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return rep_ ? rep_->message : kEmpty;
  }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  // Shared so that copying a Status is cheap; error paths are cold.
  std::shared_ptr<const Rep> rep_;
};

}  // namespace gknn::util

/// Evaluates `expr` (a Status expression) and returns it from the enclosing
/// function if it is an error.
#define GKNN_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::gknn::util::Status _st = (expr);           \
    if (!_st.ok()) return _st;                   \
  } while (false)

#endif  // GKNN_UTIL_STATUS_H_
