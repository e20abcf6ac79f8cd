#include "count/local_counts.hpp"
#include "count/steps.hpp"

namespace bfc::count {
namespace {

/// b_i for every "line" i of `lines` (rows of the given pattern), where
/// `lines_t` is its transpose. O(Σ wedges) with one sparse accumulator. One
/// cancellation checkpoint per line: the accumulator is drained between
/// lines, so abandoning there leaks no partial state.
std::vector<count_t> per_line(const sparse::CsrPattern& lines,
                              const sparse::CsrPattern& lines_t,
                              const CancelToken& cancel, const char* where) {
  std::vector<count_t> out(static_cast<std::size_t>(lines.rows()), 0);
  sparse::WedgeAccumulator acc(lines.rows());
  for (vidx_t i = 0; i < lines.rows(); ++i) {
    cancel.checkpoint(i, where);
    out[static_cast<std::size_t>(i)] =
        detail::line_butterflies(lines, lines_t, i, acc);
  }
  return out;
}

}  // namespace

std::vector<count_t> butterflies_per_v1(const graph::BipartiteGraph& g) {
  return butterflies_per_v1(g, CancelToken{});
}

std::vector<count_t> butterflies_per_v1(const graph::BipartiteGraph& g,
                                        const CancelToken& cancel) {
  return per_line(g.csr(), g.csc(), cancel, "butterflies_per_v1");
}

std::vector<count_t> butterflies_per_v2(const graph::BipartiteGraph& g) {
  return butterflies_per_v2(g, CancelToken{});
}

std::vector<count_t> butterflies_per_v2(const graph::BipartiteGraph& g,
                                        const CancelToken& cancel) {
  return per_line(g.csc(), g.csr(), cancel, "butterflies_per_v2");
}

}  // namespace bfc::count
