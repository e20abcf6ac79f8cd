#include "count/baselines.hpp"
#include "count/steps.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"

namespace bfc::count {

count_t wedge_reference_v1(const graph::BipartiteGraph& g) {
  // Endpoint pairs in V1, wedge points in V2: expand rows of A through Aᵀ.
  return sparse::gram_pairwise_butterflies(g.csr(), g.csc());
}

count_t wedge_reference_v2(const graph::BipartiteGraph& g) {
  return sparse::gram_pairwise_butterflies(g.csc(), g.csr());
}

count_t wedge_reference(const graph::BipartiteGraph& g) {
  // Wedge expansion from the V1 side walks every wedge whose point is in
  // V2 (cost Σ_{v∈V2} deg²) and vice versa; take the cheaper side.
  const count_t cost_v1_side = detail::wedge_work(g.csc());
  const count_t cost_v2_side = detail::wedge_work(g.csr());
  return cost_v1_side <= cost_v2_side ? wedge_reference_v1(g)
                                      : wedge_reference_v2(g);
}

}  // namespace bfc::count
