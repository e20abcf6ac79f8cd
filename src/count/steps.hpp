// Per-row bodies shared by the sequential, OpenMP and sampling drivers of
// the count/ kernels, so each pair differs only in its loop over rows.
// Internal to count/; callers go through local_counts.hpp,
// parallel_counts.hpp, baselines.hpp and approx.hpp.
#pragma once

#include <vector>

#include "chk/checked_math.hpp"
#include "sparse/csr.hpp"
#include "sparse/wedge_accumulator.hpp"
#include "util/common.hpp"

namespace bfc::count::detail {

/// b_i = Σ_{j≠i} C(w_ij, 2) for line i of `lines` (transpose in `lines_t`):
/// expand the wedges i -> k -> j, skipping j = i, and reduce.
inline count_t line_butterflies(const sparse::CsrPattern& lines,
                                const sparse::CsrPattern& lines_t, vidx_t i,
                                sparse::WedgeAccumulator& acc) {
  acc.expand(lines.row(i), lines_t, [i](vidx_t j) { return j != i; });
  count_t total = 0;
  acc.drain([&total](vidx_t, count_t w) {
    total = chk::checked_add(total, chk::checked_choose2(w));
  });
  return total;
}

/// Eq. (23)/(25) for every edge of V1 row u, written to its CSR slots of
/// `support`: t[w] = |N(u) ∩ N(w)| for every V1 vertex w sharing a
/// neighbour with u, then support(u, v) = Σ_{w∈N(v)} t[w] − deg(u) −
/// deg(v) + 1. t[u] = deg(u) is included; the −deg(u) term removes it.
inline void support_row(const sparse::CsrPattern& a,
                        const sparse::CsrPattern& at, vidx_t u,
                        sparse::WedgeAccumulator& acc,
                        std::vector<count_t>& support) {
  acc.expand(a.row(u), at, [](vidx_t) { return true; });
  const count_t deg_u = a.row_degree(u);
  offset_t edge_id = a.row_ptr()[static_cast<std::size_t>(u)];
  for (const vidx_t v : a.row(u)) {
    count_t wedge_sum = 0;
    for (const vidx_t w : at.row(v))
      wedge_sum = chk::checked_add(wedge_sum, acc[w]);
    support[static_cast<std::size_t>(edge_id)] =
        wedge_sum - deg_u - at.row_degree(v) + 1;
    ++edge_id;
  }
  acc.clear();
}

/// Σ_v deg(v)² over the rows of `wedge_point_side`: the wedges a reference
/// expansion walks when those rows are the wedge points. Both reference
/// counters expand from the side where this is smaller.
inline count_t wedge_work(const sparse::CsrPattern& wedge_point_side) {
  count_t work = 0;
  for (vidx_t v = 0; v < wedge_point_side.rows(); ++v) {
    const count_t d = wedge_point_side.row_degree(v);
    work = chk::checked_add(work, chk::checked_mul(d, d));
  }
  return work;
}

}  // namespace bfc::count::detail
