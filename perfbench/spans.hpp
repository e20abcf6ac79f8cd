// The benchmark's own span recorder. Each public call the benchmark makes
// into the library is wrapped in a span: name ("<layer>.<call>"), start,
// end, parent span and, for serve reads and publishes, a request id. Spans
// stay in per-thread memory while the run measures and are written out as
// one chrome://tracing JSON file when it ends. Recording is off unless the
// run is traced (--trace 1); the library's own Tracer/SpanLog stay off in
// every run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal: "<layer>.<call>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;  // 0 = not part of a request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class Spans {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();
  /// Nanoseconds on the steady clock since the recorder's epoch.
  [[nodiscard]] static std::int64_t now_ns();
  [[nodiscard]] static std::int64_t to_ns(Clock::time_point t);
  [[nodiscard]] static std::uint64_t next_id();
  /// The innermost open scoped span of the calling thread (0 = none).
  [[nodiscard]] static std::uint64_t current();
  /// Records a finished span with explicit times (serve requests, whose
  /// parts start and end at different points of the client loop).
  static void record(const SpanRecord& rec);
  /// Every span recorded so far, from all threads.
  [[nodiscard]] static std::vector<SpanRecord> collect();
  static void clear();

 private:
  friend class ScopedSpan;
  static void set_current(std::uint64_t id);
};

/// RAII span around one public call; a no-op while recording is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord rec_{};
  bool on_ = false;
};

/// Self time per layer (the span name's prefix up to the first '.'): a
/// span's duration minus the part of it its child spans cover.
[[nodiscard]] std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as chrome://tracing "X" events; args carry id, parent
/// and request. Throws std::runtime_error if the file cannot be written.
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

}  // namespace perfbench
