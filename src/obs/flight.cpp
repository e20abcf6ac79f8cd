#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>  // NOLINT(*-deprecated-headers): sigaction needs the C header
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>

#include "obs/spans.hpp"
#include "util/parallel.hpp"
#include "util/sync.hpp"

namespace bfc::obs {
namespace {

/// Seqlock-stamped slot: a writer bumps `seq` to odd, fills the payload,
/// then bumps to even. A reader that sees an odd or changed seq discards
/// the slot instead of returning torn data.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  FlightEvent ev;
};

Slot g_ring[FlightRecorder::kCapacity];
std::atomic<std::uint64_t> g_head{0};  // next logical index to write

Mutex& path_mu() {
  static Mutex mu{"obs.flight"};
  return mu;
}
std::string& path_storage() BFC_REQUIRES(path_mu()) {
  static std::string path;
  return path;
}

void copy_truncated(char* dst, std::size_t cap, const char* src) noexcept {
  std::size_t i = 0;
  for (; src != nullptr && src[i] != '\0' && i + 1 < cap; ++i) dst[i] = src[i];
  dst[i] = '\0';
}

/// JSON string escape into a bounded buffer (fd-based dump path — no
/// std::string allocation in fault contexts).
void append_escaped(char* buf, std::size_t cap, std::size_t& off,
                    const char* s) noexcept {
  for (std::size_t i = 0; s[i] != '\0' && off + 2 < cap; ++i) {
    const char c = s[i];
    if (c == '"' || c == '\\') buf[off++] = '\\';
    // Control characters never appear (kinds/details are literals), but
    // keep the output valid JSON if one sneaks in.
    buf[off++] = (static_cast<unsigned char>(c) < 0x20) ? '?' : c;
  }
}

bool write_all(int fd, const char* data, std::size_t len) noexcept {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::atomic<bool> g_signal_dump_installed{false};

void flight_fatal_handler(int signum) {
  // Async-signal-unsafe only in the strictest sense (snapshot allocates);
  // the process is dying anyway, so a best-effort dump beats nothing.
  FlightRecorder::dump_on_fault(signum == SIGSEGV   ? "SIGSEGV"
                                : signum == SIGBUS  ? "SIGBUS"
                                : signum == SIGABRT ? "SIGABRT"
                                                    : "signal");
  signal(signum, SIG_DFL);
  raise(signum);
}

}  // namespace

void FlightRecorder::record(const char* kind, const char* detail,
                            std::int64_t a, std::int64_t b,
                            std::uint64_t trace_id) noexcept {
  if constexpr (!kMetricsEnabled) {
    (void)kind, (void)detail, (void)a, (void)b, (void)trace_id;
    return;
  }
  const std::uint64_t idx = g_head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = g_ring[idx % kCapacity];
  // Odd = in flight. Lap count in the high bits keeps seq unique per write
  // so a reader can detect being overtaken mid-copy.
  slot.seq.store(2 * idx + 1, std::memory_order_release);
  slot.ev.ts_us = now_us();
  slot.ev.trace_id = trace_id;
  slot.ev.a = a;
  slot.ev.b = b;
  slot.ev.tid = bfc::thread_id();
  copy_truncated(slot.ev.kind, sizeof(slot.ev.kind), kind);
  copy_truncated(slot.ev.detail, sizeof(slot.ev.detail), detail);
  slot.seq.store(2 * idx + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() {
  std::vector<FlightEvent> out;
  if constexpr (!kMetricsEnabled) return out;
  const std::uint64_t head = g_head.load(std::memory_order_acquire);
  const std::uint64_t count = head < kCapacity ? head : kCapacity;
  out.reserve(count);
  for (std::uint64_t logical = head - count; logical < head; ++logical) {
    Slot& slot = g_ring[logical % kCapacity];
    const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before != 2 * logical + 2) continue;  // torn or already overwritten
    FlightEvent ev = slot.ev;
    if (slot.seq.load(std::memory_order_acquire) != before) continue;
    out.push_back(ev);
  }
  return out;
}

std::int64_t FlightRecorder::recorded() noexcept {
  return static_cast<std::int64_t>(g_head.load(std::memory_order_relaxed));
}

void FlightRecorder::clear() noexcept {
  for (Slot& slot : g_ring) slot.seq.store(0, std::memory_order_relaxed);
  g_head.store(0, std::memory_order_release);
}

void FlightRecorder::set_dump_path(const std::string& path) {
  const MutexLock lock(path_mu());
  path_storage() = path;
}

std::string FlightRecorder::dump_path() {
  const MutexLock lock(path_mu());
  return path_storage();
}

bool FlightRecorder::dump(const std::string& path, const char* why) noexcept {
  const std::vector<FlightEvent> events = snapshot();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  char buf[512];
  std::size_t off = 0;
  off = static_cast<std::size_t>(
      std::snprintf(buf, sizeof(buf), "{\"reason\": \""));
  append_escaped(buf, sizeof(buf), off, why);
  off += static_cast<std::size_t>(std::snprintf(
      buf + off, sizeof(buf) - off, "\", \"recorded\": %lld, \"events\": [",
      static_cast<long long>(recorded())));
  ok = ok && write_all(fd, buf, off);
  for (std::size_t i = 0; ok && i < events.size(); ++i) {
    const FlightEvent& ev = events[i];
    off = static_cast<std::size_t>(std::snprintf(
        buf, sizeof(buf),
        "%s\n  {\"ts_us\": %lld, \"tid\": %d, \"trace\": %llu, \"kind\": \"",
        i == 0 ? "" : ",", static_cast<long long>(ev.ts_us), ev.tid,
        static_cast<unsigned long long>(ev.trace_id)));
    append_escaped(buf, sizeof(buf), off, ev.kind);
    off += static_cast<std::size_t>(
        std::snprintf(buf + off, sizeof(buf) - off, "\", \"detail\": \""));
    append_escaped(buf, sizeof(buf), off, ev.detail);
    off += static_cast<std::size_t>(std::snprintf(
        buf + off, sizeof(buf) - off, "\", \"a\": %lld, \"b\": %lld}",
        static_cast<long long>(ev.a), static_cast<long long>(ev.b)));
    ok = ok && write_all(fd, buf, off);
  }
  ok = ok && write_all(fd, "\n]}\n", 4);
  ::close(fd);
  return ok;
}

void FlightRecorder::dump_on_fault(const char* why) noexcept {
  // Best effort all the way down: this runs while a CheckError is being
  // constructed or a fatal signal is in flight, so nothing here may throw
  // (checked-build lock hooks can) or mask the original failure.
  try {
    std::string path;
    {
      const MutexLock lock(path_mu());
      path = path_storage();
    }
    if (!path.empty()) (void)dump(path, why);
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void FlightRecorder::install_signal_dump() {
  bool expected = false;
  if (!g_signal_dump_installed.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel))
    return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = flight_fatal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGSEGV, &sa, nullptr);
  sigaction(SIGBUS, &sa, nullptr);
  sigaction(SIGABRT, &sa, nullptr);
}

}  // namespace bfc::obs
