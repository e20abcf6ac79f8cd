#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

// Buffers outlive their threads: the registry owns them, a thread only
// appends to its own.
std::mutex g_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;
thread_local Buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_current = 0;

Buffer& local_buffer() {
  if (tl_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<Buffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.back()->spans.reserve(1 << 14);
    tl_buffer = g_buffers.back().get();
  }
  return *tl_buffer;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

void Spans::set_enabled(bool on) { g_enabled.store(on); }
bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t Spans::to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}
std::int64_t Spans::now_ns() { return to_ns(Clock::now()); }

std::uint64_t Spans::next_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}
std::uint64_t Spans::current() { return tl_current; }
void Spans::set_current(std::uint64_t id) { tl_current = id; }

void Spans::record(const SpanRecord& rec) {
  Buffer& buf = local_buffer();
  buf.spans.push_back(rec);
  buf.spans.back().thread = buf.thread;
}

std::vector<SpanRecord> Spans::collect() {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRecord> out;
  for (const auto& b : g_buffers)
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  return out;
}

void Spans::clear() {
  const std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_buffers) b->spans.clear();
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request)
    : on_(Spans::enabled()) {
  if (!on_) return;
  rec_.name = name;
  rec_.id = Spans::next_id();
  rec_.parent = Spans::current();
  rec_.request = request;
  Spans::set_current(rec_.id);
  rec_.start_ns = Spans::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  rec_.end_ns = Spans::now_ns();
  Spans::set_current(rec_.parent);
  Spans::record(rec_);
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> iv;
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t run_lo = 0, run_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    self[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << std::fixed;
  out.precision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << layer_of(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("failed writing span file " + path);
}

}  // namespace perfbench
