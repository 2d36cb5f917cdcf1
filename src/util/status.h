// Copyright (c) swsample authors. Licensed under the MIT license.
//
// RocksDB/Arrow-style error handling: configuration and API-misuse errors
// are reported as `Status`/`Result<T>` values from factory functions instead
// of exceptions; internal invariants use SWS_DCHECK. Hot-path methods
// (Observe/Sample) never allocate a Status.

#ifndef SWSAMPLE_UTIL_STATUS_H_
#define SWSAMPLE_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "util/macros.h"

namespace swsample {

/// Error category for `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kUnavailable,
};

/// Lightweight status value. Ok status carries no message and no allocation.
class Status {
 public:
  constexpr Status() : code_(StatusCode::kOk) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }

  /// True for transient faults (I/O hiccups, ENOSPC, injected failures)
  /// where re-running the same idempotent operation may succeed. Permanent
  /// classes (bad config, corrupt data, API misuse) are never retryable.
  bool retryable() const { return code_ == StatusCode::kUnavailable; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: k must be >= 1".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// The Ok status Result<T>::status() hands out for a held value. A
/// namespace-scope constant, so the accessor carries no function-local
/// static-init guard.
inline const Status kOkStatus;

/// Either a value or an error Status. `ValueOrDie()` aborts on error and is
/// intended for tests/examples where the inputs are known-valid.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}              // NOLINT(implicit)
  Result(Status status) : v_(std::move(status)) {        // NOLINT(implicit)
    SWS_CHECK(!std::get<Status>(v_).ok());
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const Status& status() const {
    return ok() ? kOkStatus : std::get<Status>(v_);
  }

  T& value() {
    SWS_CHECK(ok());
    return std::get<T>(v_);
  }
  const T& value() const {
    SWS_CHECK(ok());
    return std::get<T>(v_);
  }

  T ValueOrDie() && {
    if (!ok()) {
      std::fprintf(stderr, "Result error: %s\n",
                   std::get<Status>(v_).ToString().c_str());
      std::abort();
    }
    return std::move(std::get<T>(v_));
  }

 private:
  std::variant<T, Status> v_;
};

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_STATUS_H_
