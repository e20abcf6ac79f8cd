#include <algorithm>
#include <numeric>

#include "count/baselines.hpp"
#include "chk/checked_math.hpp"
#include "sparse/wedge_accumulator.hpp"

namespace bfc::count {
namespace {

// Unified-vertex-set view: V1 vertices keep their ids, V2 vertex v becomes
// n1 + v. Neighbour spans come from the matching orientation.
struct Unified {
  const graph::BipartiteGraph& g;

  [[nodiscard]] vidx_t size() const { return g.n1() + g.n2(); }

  [[nodiscard]] std::span<const vidx_t> neighbors(vidx_t x,
                                                  std::vector<vidx_t>& tmp) const {
    // Neighbour ids are returned in unified numbering; V1 rows need the
    // n1 offset applied, so they go through the scratch buffer.
    if (x < g.n1()) {
      const auto row = g.csr().row(x);
      tmp.assign(row.begin(), row.end());
      for (vidx_t& v : tmp) v += g.n1();
      return tmp;
    }
    return g.csc().row(x - g.n1());
  }

  [[nodiscard]] offset_t degree(vidx_t x) const {
    return x < g.n1() ? g.csr().row_degree(x)
                      : g.csc().row_degree(x - g.n1());
  }
};

}  // namespace

count_t vertex_priority(const graph::BipartiteGraph& g) {
  const Unified u{g};
  const vidx_t n = u.size();

  // rank[x] = position in (degree desc, id asc) order; lower rank = higher
  // priority. Each butterfly is counted exactly once, at its
  // highest-priority vertex.
  std::vector<vidx_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](vidx_t a, vidx_t b) {
    const offset_t da = u.degree(a);
    const offset_t db = u.degree(b);
    return da != db ? da > db : a < b;
  });
  std::vector<vidx_t> rank(static_cast<std::size_t>(n));
  for (vidx_t i = 0; i < n; ++i)
    rank[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;

  sparse::WedgeAccumulator acc(n);
  std::vector<vidx_t> tmp_x, tmp_w;
  count_t total = 0;

  for (vidx_t x = 0; x < n; ++x) {
    const vidx_t rx = rank[static_cast<std::size_t>(x)];
    for (const vidx_t w : u.neighbors(x, tmp_x)) {
      if (rank[static_cast<std::size_t>(w)] <= rx) continue;  // need p(w) < p(x)
      for (const vidx_t y : u.neighbors(w, tmp_w)) {
        if (y == x) continue;
        if (rank[static_cast<std::size_t>(y)] <= rx) continue;
        acc.add(y);
      }
    }
    acc.drain([&total](vidx_t, count_t w) {
      total = chk::checked_add(total, chk::checked_choose2(w));
    });
  }
  return total;
}

}  // namespace bfc::count
