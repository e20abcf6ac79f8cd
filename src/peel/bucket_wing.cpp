#include <algorithm>
#include <queue>

#include "count/local_counts.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "peel/decompose.hpp"

#include "sparse/ops.hpp"

namespace bfc::peel {

WingDecomposition wing_decomposition(const graph::BipartiteGraph& g) {
  const obs::Span phase("peel.wing_decomposition");
  const sparse::CsrPattern& a = g.csr();
  const sparse::CsrPattern& at = g.csc();
  const auto nnz = static_cast<std::size_t>(a.nnz());
  const std::vector<offset_t> csc_eid = sparse::transpose_entry_ids(a, at);

  std::vector<count_t> support = count::support_per_edge(g);
  WingDecomposition d;
  d.wing_number.assign(nnz, 0);

  using Entry = std::pair<count_t, offset_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t e = 0; e < nnz; ++e)
    heap.emplace(support[e], static_cast<offset_t>(e));

  std::vector<std::uint8_t> removed(nnz, 0);

  // Endpoints of each CSR edge id.
  std::vector<vidx_t> edge_u(nnz), edge_v(nnz);
  {
    offset_t k = 0;
    for (vidx_t u = 0; u < a.rows(); ++u)
      for (const vidx_t v : a.row(u)) {
        edge_u[static_cast<std::size_t>(k)] = u;
        edge_v[static_cast<std::size_t>(k)] = v;
        ++k;
      }
  }

  count_t running_k = 0;
  count_t obs_moves = 0;
  auto decrement = [&](offset_t e) {
    const auto ei = static_cast<std::size_t>(e);
    --support[ei];
    heap.emplace(support[ei], e);
    if constexpr (obs::kMetricsEnabled) ++obs_moves;
  };

  while (!heap.empty()) {
    const auto [val, e] = heap.top();
    heap.pop();
    const auto ei = static_cast<std::size_t>(e);
    if (removed[ei] || val != support[ei]) continue;

    running_k = std::max(running_k, support[ei]);
    d.wing_number[ei] = running_k;
    d.max_wing = std::max(d.max_wing, running_k);
    removed[ei] = 1;

    const vidx_t u = edge_u[ei];
    const vidx_t v = edge_v[ei];

    // Every surviving butterfly through (u, v) has the shape
    // (u, v, w, x): w ∈ N(v)\{u}, x ∈ N(u)∩N(w)\{v}, with edges (u,x),
    // (w,v), (w,x) still alive. Each loses one unit of support.
    const auto v_nbrs = at.row(v);
    const auto v_base = at.row_ptr()[static_cast<std::size_t>(v)];
    for (std::size_t wi = 0; wi < v_nbrs.size(); ++wi) {
      const vidx_t w = v_nbrs[wi];
      if (w == u) continue;
      const offset_t e_wv =
          csc_eid[static_cast<std::size_t>(v_base) + wi];
      if (removed[static_cast<std::size_t>(e_wv)]) continue;

      // Sorted merge of N(u) and N(w), tracking CSR edge ids on both sides.
      const auto u_nbrs = a.row(u);
      const auto w_nbrs = a.row(w);
      const offset_t u_base = a.row_ptr()[static_cast<std::size_t>(u)];
      const offset_t w_base = a.row_ptr()[static_cast<std::size_t>(w)];
      std::size_t iu = 0, iw = 0;
      while (iu < u_nbrs.size() && iw < w_nbrs.size()) {
        if (u_nbrs[iu] < w_nbrs[iw]) {
          ++iu;
        } else if (w_nbrs[iw] < u_nbrs[iu]) {
          ++iw;
        } else {
          const vidx_t x = u_nbrs[iu];
          const offset_t e_ux = u_base + static_cast<offset_t>(iu);
          const offset_t e_wx = w_base + static_cast<offset_t>(iw);
          ++iu;
          ++iw;
          if (x == v) continue;
          if (removed[static_cast<std::size_t>(e_ux)] ||
              removed[static_cast<std::size_t>(e_wx)])
            continue;
          decrement(e_ux);
          decrement(e_wv);
          decrement(e_wx);
        }
      }
    }
  }
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("peel.edges_peeled", static_cast<count_t>(nnz));
    BFC_COUNT_ADD("peel.bucket_moves", obs_moves);
    // Each removed butterfly decrements three surviving edges' supports.
    BFC_COUNT_ADD("peel.butterflies_decremented", obs_moves / 3);
  }
  return d;
}

}  // namespace bfc::peel
