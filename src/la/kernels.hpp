// Update kernels shared by all eight invariants. Both families reduce to
// the same computation once the partitioned dimension is presented as the
// rows of a CsrPattern:
//   - column family (invariants 1-4): lines = CSC of A (rows are V2
//     vertices, entries are V1 ids), matching the paper's CSC storage;
//   - row family (invariants 5-8): lines = CSR of A.
// Each step evaluates the Fig. 6/7 update
//   Ξ += ½·a₁ᵀ P Pᵀ a₁ − ½·Γ(a₁a₁ᵀ ∘ P Pᵀ)
// for pivot line a₁ and peer partition P ∈ {A0, A2}.
//
// Each sequential kernel and its OpenMP version share one step body
// (la/steps.hpp) and differ only in the loop over steps: unblocked_step for
// count_unblocked(_parallel), wedge_step for count_wedge(_parallel) and
// count_mismatched. wedge_step expands through sparse::WedgeAccumulator,
// the wedge-expansion primitive every production counter shares.
#pragma once

#include "la/invariants.hpp"
#include "sparse/csr.hpp"
#include "util/common.hpp"

namespace bfc::la {

/// How the per-step update is evaluated.
enum class UpdateForm {
  /// Literal two-term evaluation: one pass over the peer partition for
  /// a₁ᵀPPᵀa₁ (Σ t_c²) and a second pass for Γ(a₁a₁ᵀ∘PPᵀ) (Σ t_c) — the
  /// straightforward reading of Eq. (17)/(18).
  kTwoTerm,
  /// Single fused pass accumulating Σ C(t_c, 2), "avoiding the computation
  /// of the subtraction term" as §III-C suggests.
  kFused,
};

/// Paper-faithful unblocked kernel: for every step, the peer partition is
/// re-scanned in the stored format, so one invariant run costs
/// O(Σ_steps nnz(peer)) ≈ O(p · nnz) where p is the partitioned dimension —
/// the cost model behind the paper's Fig. 10/11 shapes. Sequential.
[[nodiscard]] count_t count_unblocked(const sparse::CsrPattern& lines,
                                      Direction direction, PeerSide peer,
                                      UpdateForm form);

/// OpenMP version of count_unblocked: pivots are distributed over threads,
/// each with private mark scratch; the step sums are combined with a
/// deterministic integer reduction.
[[nodiscard]] count_t count_unblocked_parallel(const sparse::CsrPattern& lines,
                                               Direction direction,
                                               PeerSide peer, UpdateForm form);

/// Optimised wedge-expansion kernel (needs both orientations): instead of
/// scanning the whole peer partition, each pivot expands only its actual
/// wedges through lines_t, costing O(Σ wedges) overall. Fused update only.
[[nodiscard]] count_t count_wedge(const sparse::CsrPattern& lines,
                                  const sparse::CsrPattern& lines_t,
                                  Direction direction, PeerSide peer);

/// OpenMP version of count_wedge.
[[nodiscard]] count_t count_wedge_parallel(const sparse::CsrPattern& lines,
                                           const sparse::CsrPattern& lines_t,
                                           Direction direction, PeerSide peer);

/// Storage-format-mismatch kernel for the A4 ablation: runs a column-family
/// style traversal when only the opposite orientation (`other`, whose rows
/// are the NON-partitioned dimension) is stored. Recovering each pivot line
/// costs a binary-search scan over all stored rows, which is exactly the
/// penalty §V's storage-format discussion predicts.
[[nodiscard]] count_t count_mismatched(const sparse::CsrPattern& other,
                                       Direction direction, PeerSide peer);

}  // namespace bfc::la
