#include <queue>

#include "count/local_counts.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "peel/decompose.hpp"
#include "sparse/wedge_accumulator.hpp"

namespace bfc::peel {

TipDecomposition tip_decomposition(const graph::BipartiteGraph& g, Side side) {
  const obs::Span phase("peel.tip_decomposition");
  // `lines` rows enumerate the peeled side; `lines_t` the opposite side.
  const sparse::CsrPattern& lines = side == Side::kV1 ? g.csr() : g.csc();
  const sparse::CsrPattern& lines_t = side == Side::kV1 ? g.csc() : g.csr();
  const vidx_t n = lines.rows();

  std::vector<count_t> b = side == Side::kV1 ? count::butterflies_per_v1(g)
                                             : count::butterflies_per_v2(g);

  TipDecomposition d;
  d.tip_number.assign(static_cast<std::size_t>(n), 0);

  using Entry = std::pair<count_t, vidx_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (vidx_t u = 0; u < n; ++u)
    heap.emplace(b[static_cast<std::size_t>(u)], u);

  std::vector<std::uint8_t> removed(static_cast<std::size_t>(n), 0);
  sparse::WedgeAccumulator acc(n);
  count_t running_k = 0;
  // Bucket moves = re-pushed heap entries (the lazy-invalidation analogue of
  // moving a vertex between peel buckets); decrements = butterflies removed
  // from surviving peers' counts.
  count_t obs_moves = 0, obs_decrements = 0;

  while (!heap.empty()) {
    const auto [val, u] = heap.top();
    heap.pop();
    const auto ui = static_cast<std::size_t>(u);
    // Lazy invalidation: stale heap entries carry an outdated count.
    if (removed[ui] || val != b[ui]) continue;

    running_k = std::max(running_k, b[ui]);
    d.tip_number[ui] = running_k;
    d.max_tip = std::max(d.max_tip, running_k);
    removed[ui] = 1;

    // Removing u deletes, for every surviving peer j, exactly the
    // butterflies whose two peeled-side vertices are {u, j}: C(w_uj, 2)
    // where w_uj counts their common neighbours.
    acc.expand(lines.row(u), lines_t, [&](vidx_t j) {
      return j != u && !removed[static_cast<std::size_t>(j)];
    });
    acc.drain([&](vidx_t j, count_t w) {
      const auto ji = static_cast<std::size_t>(j);
      if constexpr (obs::kMetricsEnabled) {
        obs_decrements += choose2(w);
        ++obs_moves;
      }
      b[ji] -= choose2(w);
      heap.emplace(b[ji], j);
    });
  }
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("peel.vertices_peeled", n);
    BFC_COUNT_ADD("peel.bucket_moves", obs_moves);
    BFC_COUNT_ADD("peel.butterflies_decremented", obs_decrements);
  }
  return d;
}

}  // namespace bfc::peel
