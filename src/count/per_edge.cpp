#include "count/local_counts.hpp"
#include "count/steps.hpp"

namespace bfc::count {

std::vector<count_t> support_per_edge(const graph::BipartiteGraph& g) {
  return support_per_edge(g, CancelToken{});
}

std::vector<count_t> support_per_edge(const graph::BipartiteGraph& g,
                                      const CancelToken& cancel) {
  const auto& a = g.csr();
  std::vector<count_t> support(static_cast<std::size_t>(a.nnz()), 0);
  sparse::WedgeAccumulator acc(a.rows());
  for (vidx_t u = 0; u < a.rows(); ++u) {
    // Per-row cancellation point (the wing pass of deadline-bearing
    // queries); the accumulator is cleared at the end of every row, so
    // abandoning here leaks no partial state.
    cancel.checkpoint(u, "support_per_edge");
    detail::support_row(a, g.csc(), u, acc, support);
  }
  return support;
}

}  // namespace bfc::count
