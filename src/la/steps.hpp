// The two per-step update bodies of the la/ kernels. Each is shared by the
// sequential driver, its OpenMP driver and (for the wedge step) the
// mismatched-storage ablation, which differ only in how they walk the
// traversal steps. Internal to la/; callers go through la/count.hpp.
//
// Both bodies accumulate through chk::checked_*, which folds to the plain
// operation unless the build is BFC_CHECKED.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chk/checked_math.hpp"
#include "la/kernels.hpp"
#include "la/partition.hpp"
#include "obs/metrics.hpp"
#include "sparse/wedge_accumulator.hpp"

namespace bfc::la {

/// Kernel work counters for one run (or one thread's share of it),
/// accumulated locally and published once at the end so the hot loops never
/// touch a shared shard. Only maintained when metrics are compiled in.
struct StepWork {
  count_t lines = 0;   // pivots that ran an update
  count_t wedges = 0;  // Σ t_c over processed (pivot, peer) pairs
  count_t nnz = 0;     // peer entries scanned (unblocked kernels)
};

/// t_c = |a₁ ∩ line c| by scanning line c against the pivot's mark array.
inline count_t line_overlap(const sparse::CsrPattern& lines, vidx_t c,
                            const std::vector<std::uint8_t>& marked) {
  count_t t = 0;
  for (const vidx_t i : lines.row(c))
    t = chk::checked_add(t, marked[static_cast<std::size_t>(i)]);
  return t;
}

/// One step of the paper-faithful unblocked kernel: mark the pivot line,
/// rescan every peer line in [peer_lo, peer_hi), and return the step's
/// butterflies. `marked` is all zero on entry and on return.
inline count_t unblocked_step(const sparse::CsrPattern& lines,
                              const Step& step, UpdateForm form,
                              std::vector<std::uint8_t>& marked,
                              StepWork& work) {
  const auto pivot_line = lines.row(step.pivot);
  // A pivot with fewer than 2 entries contributes zero under either form
  // (t_c ≤ 1 everywhere, so Σ C(t_c,2) = 0 and Σ t_c² = Σ t_c); skipping
  // it in both keeps the two-term/fused ablation a pure one-pass vs
  // two-pass comparison.
  if (pivot_line.size() < 2) return 0;
  for (const vidx_t i : pivot_line) marked[static_cast<std::size_t>(i)] = 1;

  // The peer range is contiguous, so the entries it scans are one O(1)
  // row_ptr difference — never a per-line degree lookup inside the hot
  // loop (measurably expensive at O(p·nnz) trip counts).
  if constexpr (obs::kMetricsEnabled) {
    const auto& ptr = lines.row_ptr();
    const offset_t range_nnz = ptr[static_cast<std::size_t>(step.peer_hi)] -
                               ptr[static_cast<std::size_t>(step.peer_lo)];
    work.nnz = chk::checked_add(
        work.nnz, (form == UpdateForm::kFused ? 1 : 2) * range_nnz);
    ++work.lines;
  }
  count_t step_sum = 0;
  if (form == UpdateForm::kFused) {
    // Σ_c C(t_c, 2): single pass, no subtraction term.
    count_t step_wedges = 0;
    for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c) {
      const count_t t = line_overlap(lines, c, marked);
      step_sum = chk::checked_add(step_sum, chk::checked_choose2(t));
      if constexpr (obs::kMetricsEnabled)
        step_wedges = chk::checked_add(step_wedges, t);
    }
    if constexpr (obs::kMetricsEnabled)
      work.wedges = chk::checked_add(work.wedges, step_wedges);
  } else {
    // Literal Eq. (17)/(18): ½·a₁ᵀPPᵀa₁ as Σ t_c² in one pass over the
    // peer partition, then ½·Γ(a₁a₁ᵀ∘PPᵀ) as Σ t_c in a second pass.
    count_t quad = 0;
    for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c) {
      const count_t t = line_overlap(lines, c, marked);
      quad = chk::checked_add(quad, chk::checked_mul(t, t));
    }
    count_t lin = 0;
    for (vidx_t c = step.peer_lo; c < step.peer_hi; ++c)
      lin = chk::checked_add(lin, line_overlap(lines, c, marked));
    step_sum = chk::checked_sub(quad, lin) / 2;
    if constexpr (obs::kMetricsEnabled)
      work.wedges = chk::checked_add(work.wedges, lin);
  }
  for (const vidx_t i : pivot_line) marked[static_cast<std::size_t>(i)] = 0;
  return step_sum;
}

/// One step of the wedge engine: expand only the pivot's wedges through
/// lines_t, keeping peer lines in [peer_lo, peer_hi), and return
/// Σ_c C(t_c, 2). `pivot_line` is the pivot's row of `lines`, or its
/// rebuilt column when only the mismatched orientation is stored.
inline count_t wedge_step(std::span<const vidx_t> pivot_line,
                          const sparse::CsrPattern& lines_t, const Step& step,
                          sparse::WedgeAccumulator& acc, StepWork& work) {
  if (pivot_line.size() < 2) return 0;
  const vidx_t lo = step.peer_lo, hi = step.peer_hi;
  acc.expand(pivot_line, lines_t,
             [lo, hi](vidx_t c) { return c >= lo && c < hi; });
  count_t step_sum = 0, step_wedges = 0;
  acc.drain([&](vidx_t, count_t t) {
    // t = t_c, so summing it here counts every expanded wedge without
    // touching the inner expansion loop.
    if constexpr (obs::kMetricsEnabled)
      step_wedges = chk::checked_add(step_wedges, t);
    step_sum = chk::checked_add(step_sum, chk::checked_choose2(t));
  });
  if constexpr (obs::kMetricsEnabled) {
    work.wedges = chk::checked_add(work.wedges, step_wedges);
    ++work.lines;
  }
  return step_sum;
}

}  // namespace bfc::la
