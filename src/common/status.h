// Copyright 2026 the pdblb authors. MIT license.
//
// A lightweight Status in the style used by large C++ database code bases
// (Arrow, RocksDB, Abseil).  pdblb is an in-process
// simulator, so most errors indicate configuration mistakes; Status keeps
// them explicit without exceptions.

#ifndef PDBLB_COMMON_STATUS_H_
#define PDBLB_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace pdblb {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kNotFound,
  kOutOfRange,
  kInternal,
  kIoError,
  kDeadlineExceeded,
  kUnavailable,
  kResourceExhausted,
};

/// Result of an operation: either OK or an error code plus message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace pdblb

#define PDBLB_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::pdblb::Status _st = (expr);              \
    if (!_st.ok()) return _st;                 \
  } while (false)

#endif  // PDBLB_COMMON_STATUS_H_
