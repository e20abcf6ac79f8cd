// Forwarding alias kept for one caller: perfbench/main.cpp switches library
// tracing off through Tracer::set_enabled, and the benchmark's sources change
// only together with its recorded baselines. The library traces through
// SpanLog (obs/spans.hpp) alone; delete this header once that call moves to
// SpanLog::set_enabled.
#pragma once

#include "obs/spans.hpp"

namespace bfc::obs {

struct Tracer {
  static void set_enabled(bool on) noexcept { SpanLog::set_enabled(on); }
};

}  // namespace bfc::obs
