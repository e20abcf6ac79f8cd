#include "count/top_pairs.hpp"

#include <algorithm>
#include <iterator>
#include <queue>

#include "sparse/ops.hpp"
#include "sparse/wedge_accumulator.hpp"

namespace bfc::count {
namespace {

/// Keeps the k best pairs while streaming all connected pairs of the rows
/// of `lines` (transpose in `lines_t`).
std::vector<VertexPair> top_pairs(const sparse::CsrPattern& lines,
                                  const sparse::CsrPattern& lines_t,
                                  std::size_t k) {
  if (k == 0) return {};
  auto better = [](const VertexPair& x, const VertexPair& y) {
    return pair_order(x, y);
  };
  // Min-heap of the current best k under `better`.
  auto heap_cmp = [&](const VertexPair& x, const VertexPair& y) {
    return better(x, y);
  };
  std::priority_queue<VertexPair, std::vector<VertexPair>,
                      decltype(heap_cmp)>
      heap(heap_cmp);

  const vidx_t n = lines.rows();
  sparse::WedgeAccumulator acc(n);
  for (vidx_t i = 0; i < n; ++i) {
    acc.expand(lines.row(i), lines_t, [i](vidx_t j) { return j > i; });
    acc.drain([&](vidx_t j, count_t w) {
      const VertexPair candidate{i, j, w};
      if (heap.size() < k) {
        heap.push(candidate);
      } else if (better(candidate, heap.top())) {
        heap.pop();
        heap.push(candidate);
      }
    });
  }

  std::vector<VertexPair> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top());
    heap.pop();
  }
  std::sort(out.begin(), out.end(), better);
  return out;
}

}  // namespace

std::vector<VertexPair> top_wedge_pairs_v1(const graph::BipartiteGraph& g,
                                           std::size_t k) {
  return top_pairs(g.csr(), g.csc(), k);
}

std::vector<VertexPair> top_wedge_pairs_v2(const graph::BipartiteGraph& g,
                                           std::size_t k) {
  return top_pairs(g.csc(), g.csr(), k);
}

Biclique2 max_biclique_2xk(const graph::BipartiteGraph& g) {
  const auto best = top_wedge_pairs_v1(g, 1);
  Biclique2 result;
  if (best.empty() || best[0].wedges < 2) return result;
  result.a = best[0].a;
  result.b = best[0].b;
  const auto ra = g.csr().row(result.a);
  const auto rb = g.csr().row(result.b);
  std::set_intersection(ra.begin(), ra.end(), rb.begin(), rb.end(),
                        std::back_inserter(result.columns));
  return result;
}

}  // namespace bfc::count
