// The one span store. Every timed region in the process lands here as a
// SpanRecord: request-scoped spans that form a *causal tree* (a trace id
// shared by everything one svc::Request touched, its own span id, the span
// id of its parent, plus string tags for the decisions made inside it —
// cache hit/miss, degrade rung, shed/cancelled outcome, fidelity of the
// answer), and context-free phase spans (loaders, kernels, peeling, shard
// persist/restore, bench cells) that each root their own trace. A query's
// life — admission, queue wait, coalesced kernel pass, degradation —
// reconstructs as one tree no matter how many threads it crossed. Two
// renderers read the log: write_json (the span tree) and write_chrome_json
// (a chrome://tracing timeline, one track per OpenMP thread).
//
// Collection is runtime-gated: a disabled SpanLog costs one relaxed load per
// Span construction and no allocation, and under BFC_METRICS=OFF enabled()
// is constant-false so the whole plumbing folds away. Storage is sharded by
// recording thread (span close is on the serving hot path; a single log
// mutex would serialise every reader), each shard a bounded ring that
// overwrites its oldest span past capacity, so a long-running service
// cannot grow the log without bound.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace bfc::obs {

/// Microseconds on the steady clock since the process trace epoch: the one
/// clock behind span, flight-recorder and queue-wait timestamps.
[[nodiscard]] std::int64_t now_us();

/// The identity a request carries through the service: which trace it
/// belongs to and which span is the current parent. Copied by value into
/// queue tasks and kernel lambdas; 16 bytes, trivially copyable.
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = not part of any trace
  std::uint64_t span_id = 0;   // parent for spans opened under this context

  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }

  /// Fresh root context with a process-unique nonzero trace id. The span id
  /// starts at 0: the first Span opened under it becomes the root span.
  [[nodiscard]] static TraceContext root() noexcept;
};

/// One key/value tag. Spans close on the serving hot path, so tags are
/// plain inline storage: the key must be a string literal (or otherwise
/// outlive the log) and the value is copied, truncated past 15 characters.
struct SpanTag {
  const char* key = nullptr;
  std::array<char, 16> value{};  // NUL-terminated copy
};

/// One completed span as stored in the log. Fixed-size and deliberately
/// small — no heap allocation happens anywhere between Span construction
/// and the record landing in its shard, and the record spans few cache
/// lines (recording streams through a large ring, so every byte of the
/// record is a cold write) — so tracing every query stays cheap enough to
/// leave on under load. The serving spans use at most 4 tags.
struct SpanRecord {
  static constexpr std::size_t kMaxTags = 5;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root span of its trace
  std::string_view name;        // literal; must outlive the log
  std::int64_t ts_us = 0;   // start, microseconds on now_us()'s clock
  std::int64_t dur_us = 0;  // duration in microseconds
  int tid = 0;              // OpenMP thread id where the span closed
  std::uint64_t seq = 0;    // process-wide completion order, set by record()
  std::array<SpanTag, kMaxTags> tags{};
  std::uint8_t tag_count = 0;

  /// Appends a tag; silently dropped past kMaxTags, value truncated to fit.
  void add_tag(const char* key, std::string_view value) noexcept;

  /// First value recorded under `key`, or "" when the tag is absent.
  [[nodiscard]] std::string_view tag(std::string_view key) const noexcept;
};

/// Process-wide bounded log of completed spans. All members are static: the
/// span tree is a property of the process.
class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 13;

  [[nodiscard]] static bool enabled() noexcept {
    if constexpr (!kMetricsEnabled) return false;
    return enabled_flag().load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) noexcept {
    enabled_flag().store(on, std::memory_order_relaxed);
  }

  /// Head-based sampling: only 1 in `n` requests is rooted (and therefore
  /// traced — an unrooted request's spans are all inert). Default 1 =
  /// trace everything; production loads wanting negligible overhead pick a
  /// larger period. Applied where root contexts are minted, not per span,
  /// so a sampled request always yields its complete tree.
  static void set_sample_period(std::uint64_t n) noexcept;
  [[nodiscard]] static std::uint64_t sample_period() noexcept;

  /// True for 1 of every sample_period() calls (thread-local stride, so
  /// concurrent readers each sample at the configured rate).
  [[nodiscard]] static bool sample() noexcept;

  /// Caps the number of retained spans per thread shard (>= 1); excess
  /// drops the oldest within each shard.
  static void set_capacity(std::size_t capacity);

  /// Appends one completed span, dropping its shard's oldest past capacity.
  static void record(SpanRecord rec);

  /// Snapshot in completion order (oldest first), merged across shards.
  [[nodiscard]] static std::vector<SpanRecord> snapshot();

  /// Spans discarded because the log was at capacity.
  [[nodiscard]] static std::int64_t dropped();

  static void clear();

  /// Process-unique nonzero id for spans and traces.
  [[nodiscard]] static std::uint64_t next_id() noexcept;

  /// Serializes the log as {"spans": [...], "dropped": n}; each span is
  /// {trace, span, parent, name, ts_us, dur_us, tid, tags{...}}. Throws
  /// std::runtime_error if the file cannot be written.
  static void write_json(const std::string& path);

  /// Serializes the log as chrome://tracing trace-event JSON: one complete
  /// ("ph":"X") event per span with the OpenMP thread id as `tid` and the
  /// tags as `args`, plus {"otherData": {"dropped": n}} so a truncated ring
  /// is visible. Throws std::runtime_error if the file cannot be written.
  static void write_chrome_json(const std::string& path);

 private:
  static std::atomic<bool>& enabled_flag() noexcept;
};

/// RAII span. Inert (zero allocation, no record) unless the log is enabled
/// AND the parent context is active — a request that was never rooted stays
/// invisible no matter how deep its call tree goes. close() stamps the
/// duration and records early; the destructor closes if nobody did.
class Span {
 public:
  /// Child span under `parent`. `name` must be a string literal (or
  /// otherwise outlive the log).
  Span(const TraceContext& parent, std::string_view name) {
    if (SpanLog::enabled() && parent.active()) open(parent, name);
  }

  /// Phase span: roots its own trace without head sampling, so it is
  /// armed exactly when the log is enabled.
  explicit Span(std::string_view name) {
    if (SpanLog::enabled()) open(TraceContext::root(), name);
  }

  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Context for child spans / cross-thread continuations.
  [[nodiscard]] TraceContext context() const noexcept {
    return TraceContext{rec_.trace_id, rec_.span_id};
  }

  /// Attaches a key/value tag; no-op on an inert or closed span. The key
  /// must be a literal; the value is copied (truncated past 15 chars).
  void tag(const char* key, std::string_view value);

  /// Integer tag (epoch, signature, shard id, ...): formatted in decimal
  /// with std::to_chars only when the span is armed, so an inert span pays
  /// one branch and no formatting. Same truncation as the string form.
  void tag(const char* key, std::uint64_t value);

  /// Stamps the duration and records the span; idempotent.
  void close() {
    if (armed_) record_close();
  }

 private:
  void open(const TraceContext& parent, std::string_view name);
  void record_close();

  SpanRecord rec_;
  bool armed_ = false;
};

}  // namespace bfc::obs
