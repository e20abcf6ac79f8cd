// Cooperative cancellation for long-running kernels. A CancelToken carries
// an optional wall-clock deadline; kernels that may scan millions of rows
// call checkpoint(row, where) once per outer-loop row and abandon the pass
// with CancelledError when the deadline has passed. The clock is only
// consulted on rows that are a multiple of 64, so the common (unarmed or
// not-yet-expired) path costs one or two branches per row. The stride is
// taken from the caller's row, not from state in the token: a token is
// shared by every kernel of a request, and each kernel's row 0 checks the
// clock.
//
// This lives in util/ rather than svc/ because the counting kernels
// (count::butterflies_per_v1, count::support_per_edge) take the token
// directly and must not depend on the serving layer; svc::Deadline converts
// itself into a token at submission time.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace bfc {

/// Thrown by CancelToken::checkpoint when the deadline has passed; the
/// serving layer catches it and degrades the answer instead of finishing
/// a scan whose requester has already given up.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(const std::string& where)
      : std::runtime_error("cancelled: deadline exceeded in " + where) {}
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unarmed token: checkpoint() never fires. This is the default every
  /// kernel overload without an explicit token uses.
  CancelToken() = default;

  /// Token that fires once `deadline` has passed.
  explicit CancelToken(Clock::time_point deadline) noexcept
      : at_(deadline), armed_(true) {}

  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Immediate (non-strided) deadline test.
  [[nodiscard]] bool expired() const noexcept {
    return armed_ && Clock::now() >= at_;
  }

  /// Row-granularity cancellation point for outer-loop row `row` (≥ 0):
  /// cheap when unarmed, consults the clock when row % 64 == 0, throws
  /// CancelledError (naming `where`) once the deadline has passed.
  void checkpoint(std::int64_t row, const char* where) const {
    if (!armed_ || row % 64 != 0) return;
    if (Clock::now() >= at_) throw CancelledError(where);
  }

 private:
  Clock::time_point at_{};
  bool armed_ = false;
};

}  // namespace bfc
