#include "la/blocked.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "chk/checked_math.hpp"
#include "chk/validate.hpp"
#include "chk/tsan_fence.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sparse/wedge_accumulator.hpp"

namespace bfc::la {
namespace {

/// Panels are encoded as bitmasks over the shared vertex dimension, so the
/// panel width is capped at the word size; wider requests are processed in
/// 64-line chunks by the driver.
constexpr vidx_t kMaxPanel = 64;

struct PanelScratch {
  std::vector<std::uint64_t> member;  // vertex -> bitmask of panel lines
  sparse::WedgeAccumulator t;         // per-panel-line overlap t_q

  explicit PanelScratch(vidx_t vertex_dim)
      : member(static_cast<std::size_t>(vertex_dim), 0), t(kMaxPanel) {}
};

/// Adds Σ_q C(t_q, 2) to `total` and Σ_q t_q to `wedges`, leaving the panel
/// accumulator all zero.
void drain_panel(sparse::WedgeAccumulator& t, count_t& total,
                 count_t& wedges) {
  t.drain([&](vidx_t, count_t t_q) {
    if constexpr (obs::kMetricsEnabled)
      wedges = chk::checked_add(wedges, t_q);
    total = chk::checked_add(total, chk::checked_choose2(t_q));
  });
}

/// Counts butterflies of one panel [b0, b1) against peer lines [peer_lo,
/// peer_hi) plus the pairs inside the panel itself.
count_t panel_update(const sparse::CsrPattern& lines, vidx_t b0, vidx_t b1,
                     vidx_t peer_lo, vidx_t peer_hi, PanelScratch& scratch) {
  // Register panel membership bitmasks.
  for (vidx_t p = b0; p < b1; ++p) {
    const std::uint64_t bit = 1ULL << (p - b0);
    for (const vidx_t i : lines.row(p))
      scratch.member[static_cast<std::size_t>(i)] |= bit;
  }

  count_t total = 0;
  count_t obs_wedges = 0, obs_nnz = 0;
  // The peer range is contiguous: its scanned entries are one row_ptr
  // difference, not a per-line degree lookup inside the scan loop.
  if constexpr (obs::kMetricsEnabled)
    obs_nnz = lines.row_ptr()[static_cast<std::size_t>(peer_hi)] -
              lines.row_ptr()[static_cast<std::size_t>(peer_lo)];

  // (b) Panel x peer: ONE scan of the peer partition recovers t_{c,q} for
  // every panel line q simultaneously — the blocking payoff.
  for (vidx_t c = peer_lo; c < peer_hi; ++c) {
    for (const vidx_t i : lines.row(c)) {
      std::uint64_t bits = scratch.member[static_cast<std::size_t>(i)];
      while (bits != 0) {
        scratch.t.add(static_cast<vidx_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
    drain_panel(scratch.t, total, obs_wedges);
  }

  // (a) Pairs inside the panel: expand each line against the bitmask of
  // STRICTLY LATER panel lines so each pair is counted once.
  for (vidx_t p = b0; p < b1; ++p) {
    const vidx_t q1 = p - b0;
    for (const vidx_t i : lines.row(p)) {
      // Keep only panel-mates with larger local index.
      std::uint64_t bits = scratch.member[static_cast<std::size_t>(i)] &
                           ~((q1 == 63) ? ~0ULL : ((2ULL << q1) - 1));
      while (bits != 0) {
        scratch.t.add(static_cast<vidx_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
    drain_panel(scratch.t, total, obs_wedges);
  }

  // Clear membership for the next panel.
  for (vidx_t p = b0; p < b1; ++p)
    for (const vidx_t i : lines.row(p))
      scratch.member[static_cast<std::size_t>(i)] = 0;

  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("la.panels", 1);
    BFC_COUNT_ADD("la.lines_processed", b1 - b0);
    BFC_COUNT_ADD("la.wedges", obs_wedges);
    BFC_COUNT_ADD("la.nnz_scanned", obs_nnz);
  }
  return total;
}

}  // namespace

count_t count_blocked(const sparse::CsrPattern& lines, Direction direction,
                      PeerSide peer, vidx_t block_size) {
  require(block_size >= 1, "count_blocked: block_size must be >= 1");
  BFC_VALIDATE(lines);
  const vidx_t b = std::min(block_size, kMaxPanel);
  const vidx_t n = lines.rows();
  PanelScratch scratch(lines.cols());

  count_t total = 0;
  // Panels tile [0, n); the traversal direction only changes the order in
  // which they are visited (performance, not coverage), exactly as for the
  // unblocked family.
  const vidx_t panels = n == 0 ? 0 : (n + b - 1) / b;
  for (vidx_t k = 0; k < panels; ++k) {
    const vidx_t panel_idx =
        direction == Direction::kForward ? k : panels - 1 - k;
    const vidx_t b0 = panel_idx * b;
    const vidx_t b1 = std::min<vidx_t>(b0 + b, n);
    const vidx_t peer_lo = peer == PeerSide::kBefore ? 0 : b1;
    const vidx_t peer_hi = peer == PeerSide::kBefore ? b0 : n;
    total = chk::checked_add(
        total, panel_update(lines, b0, b1, peer_lo, peer_hi, scratch));
  }
  return total;
}

count_t count_blocked_parallel(const sparse::CsrPattern& lines,
                               Direction direction, PeerSide peer,
                               vidx_t block_size) {
  require(block_size >= 1, "count_blocked_parallel: block_size must be >= 1");
  BFC_VALIDATE(lines);
  const vidx_t b = std::min(block_size, kMaxPanel);
  const vidx_t n = lines.rows();
  const std::int64_t panels = n == 0 ? 0 : (n + b - 1) / b;
  count_t total = 0;
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    PanelScratch scratch(lines.cols());
    obs::ScopedTrace thread_span("kernel.blocked_parallel");
#pragma omp for schedule(dynamic, 1) reduction(+ : total)
    for (std::int64_t k = 0; k < panels; ++k) {
      const auto panel_idx = static_cast<vidx_t>(
          direction == Direction::kForward ? k : panels - 1 - k);
      const vidx_t b0 = panel_idx * b;
      const vidx_t b1 = std::min<vidx_t>(b0 + b, n);
      const vidx_t peer_lo = peer == PeerSide::kBefore ? 0 : b1;
      const vidx_t peer_hi = peer == PeerSide::kBefore ? b0 : n;
      total = chk::checked_add(
          total, panel_update(lines, b0, b1, peer_lo, peer_hi, scratch));
    }
    fence.thread_done();
  }
  fence.join();
  return total;
}

}  // namespace bfc::la
