// The one wedge-expansion primitive. Every production counter (Eq. 17/18
// updates, the Eq. 19 tip vector, the Eq. 25 wing support, the baselines
// and the peeling passes) reduces to the same step: expand a pivot's wedges
// into a sparse accumulator, then reduce the per-endpoint counts t_c. This
// is the GraphBLAS sparse accumulator (SPA): a dense t[] plus the list of
// slots touched since the last drain, so a reduction costs O(touched), not
// O(n).
//
// Invariant: every t[c] is zero between uses. drain() and clear() restore
// it, so a kernel that abandons a pivot half way (cancellation) must clear()
// before reusing the accumulator.
//
// The oracles (dense/, gb/, sparse::gram_pairwise_butterflies) keep their
// own loops on purpose, so differential tests compare independent code.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "util/common.hpp"

namespace bfc::sparse {

class WedgeAccumulator {
 public:
  /// Accumulator over slots [0, n).
  explicit WedgeAccumulator(vidx_t n) : t_(static_cast<std::size_t>(n), 0) {}

  /// ++t[c], recording c on its first touch.
  void add(vidx_t c) {
    if (t_[static_cast<std::size_t>(c)]++ == 0) touched_.push_back(c);
  }

  /// Adds every wedge of `pivot_line`: for each shared endpoint i in the
  /// pivot line and each line c of lines_t.row(i) with keep(c), ++t[c].
  /// Afterwards t[c] = |pivot ∩ line c| over the kept lines.
  template <class Keep>
  void expand(std::span<const vidx_t> pivot_line,
              const CsrPattern& lines_t, Keep keep) {
    // A local base pointer: the push_back slow path is an opaque call, and
    // reloading t_.data() after it would cost the hot loop a load.
    count_t* const t = t_.data();
    for (const vidx_t i : pivot_line)
      for (const vidx_t c : lines_t.row(i))
        if (keep(c) && t[static_cast<std::size_t>(c)]++ == 0)
          touched_.push_back(c);
  }

  /// Current t[c] (zero for an untouched slot).
  [[nodiscard]] count_t operator[](vidx_t c) const {
    return t_[static_cast<std::size_t>(c)];
  }

  /// Calls visit(c, t_c) once per touched slot, in first-touch order, and
  /// leaves the accumulator all zero.
  template <class Visit>
  void drain(Visit visit) {
    count_t* const t = t_.data();
    for (const vidx_t c : touched_) {
      visit(c, t[static_cast<std::size_t>(c)]);
      t[static_cast<std::size_t>(c)] = 0;
    }
    touched_.clear();
  }

  /// Zeroes the touched slots without visiting them.
  void clear() {
    for (const vidx_t c : touched_) t_[static_cast<std::size_t>(c)] = 0;
    touched_.clear();
  }

 private:
  std::vector<count_t> t_;
  std::vector<vidx_t> touched_;
};

}  // namespace bfc::sparse
