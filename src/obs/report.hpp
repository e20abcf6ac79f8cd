// Machine-readable run reports: config + environment capture + metric
// snapshots + raw timing samples, serialized as one JSON document with the
// stable top-level keys {config, environment, metrics, samples}. Every
// bench binary writes one of these behind --json <path>; later perf PRs
// diff the kernel counters and sample arrays instead of eyeballing tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/timer.hpp"

namespace bfc::obs {

class RunReport {
 public:
  /// Config entries land under "config" (flag values, program name, ...).
  void set_config(const std::string& key, Json value);

  /// Records a named timing cell with every repetition's seconds, so
  /// nothing about the distribution is discarded. Summary stats (median,
  /// mean, stddev, p90) are precomputed into the JSON for easy diffing.
  void add_sample(const std::string& label, const Samples& samples);

  /// Number of cells added so far: the samples[] index the next
  /// add_sample() lands at.
  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }

  /// Captures compiler, OpenMP limits, git describe, timestamp, hostname
  /// and whether kernel metrics were compiled in. Idempotent (re-captures).
  void capture_environment();

  /// Copies the current Registry snapshot into the report's "metrics"
  /// object (counters as integers, gauges as doubles, histograms as
  /// {count, sum, min, max, buckets}).
  void set_metrics_from_registry();

  [[nodiscard]] Json to_json() const;

  /// Writes to_json() (pretty-printed) to `path`; throws on I/O failure.
  void write(const std::string& path) const;

 private:
  Json config_ = Json::object();
  Json environment_ = Json::object();
  Json metrics_ = Json::object();
  Json samples_ = Json::array();
};

/// Best-effort `git describe --always --dirty --tags` of the working
/// directory's repository; "unknown" when git or the repo is unavailable.
[[nodiscard]] std::string git_describe();

}  // namespace bfc::obs
