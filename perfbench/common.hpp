// Shared plumbing of bfc_perfbench: run configuration, the metric
// map every phase fills, the correctness-gate ledger, percentile helpers and
// the obs::Registry counter probes read around each public call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Config {
  std::string workload;  // serve-single | serve-sharded
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget of one run
  bool trace = false;     // --trace 1: per-layer metrics from a traced run
  bool quick = false;     // tiny inputs, short phases, no timing gate
  int nproc = 1;          // hardware threads the run may use
  int shards = 1;
  std::string out_dir;  // span files and the exact-count ledger
  std::string corrupt;  // self-check: perturb one output so its gate fires
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
/// Ordered by name, so every table and JSON object prints sorted.
using Metrics = std::map<std::string, Metric>;

/// Counts that must repeat exactly across passes and across runs with the
/// same seed (kernel work, peeling rounds, generated edges).
using ExactCounts = std::map<std::string, std::int64_t>;

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || v[hi] == v[lo]) return v[lo];
  if (std::isinf(v[hi])) return v[hi];  // an unanswered read is +inf
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Ledger of operations: every checked output and every serve read is one
/// attempted operation. A wrong output is a failed operation and makes the
/// run incorrect; a read that got no answer is a failed operation only.
struct Gates {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
  std::vector<std::string> messages;  // first few wrong outputs, for stderr

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    ++wrong;
    if (messages.size() < 16) messages.push_back(what);
  }
};

/// Reads one obs::Registry counter before and after a call. Absent (and
/// never reported) when the library was built with BFC_METRICS=OFF.
class CounterProbe {
 public:
  explicit CounterProbe(const std::string& name)
      : counter_(&bfc::obs::Registry::instance().counter(name)) {}
  [[nodiscard]] std::int64_t value() const { return counter_->value(); }

 private:
  const bfc::obs::Counter* counter_;
};

inline constexpr bool kCountersPresent = bfc::obs::kMetricsEnabled;

/// One measured phase: end-to-end metrics, per-layer metrics and the exact
/// counts the determinism gate compares.
struct PhaseResult {
  Metrics e2e;
  Metrics layer;
  ExactCounts exact;
};

}  // namespace perfbench
