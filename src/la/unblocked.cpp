#include "chk/validate.hpp"
#include "la/steps.hpp"

namespace bfc::la {

count_t count_unblocked(const sparse::CsrPattern& lines, Direction direction,
                        PeerSide peer, UpdateForm form) {
  BFC_VALIDATE(lines);
  std::vector<std::uint8_t> marked(static_cast<std::size_t>(lines.cols()), 0);
  count_t total = 0;
  StepWork work;
  for (const Step& step : traversal_steps(lines.rows(), direction, peer))
    total = chk::checked_add(total,
                             unblocked_step(lines, step, form, marked, work));
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("la.lines_processed", work.lines);
    BFC_COUNT_ADD("la.wedges", work.wedges);
    BFC_COUNT_ADD("la.nnz_scanned", work.nnz);
  }
  return total;
}

count_t count_mismatched(const sparse::CsrPattern& other, Direction direction,
                         PeerSide peer) {
  BFC_VALIDATE(other);
  // `other` stores the non-partitioned dimension as rows (e.g. the CSR of A
  // while running a column-family traversal). The pivot line a₁ is not
  // directly addressable, so each step rebuilds it by binary-searching the
  // pivot id in every stored row — the access-pattern penalty of storing
  // the matrix in the wrong format for the chosen invariant family. With
  // row-major storage the peer columns cannot be scanned directly either,
  // so the step expands the pivot's wedges row by row through `other`.
  const vidx_t n = other.cols();  // partitioned dimension size
  std::vector<vidx_t> pivot_line;
  sparse::WedgeAccumulator acc(n);
  count_t total = 0;
  StepWork work;
  for (const Step& step : traversal_steps(n, direction, peer)) {
    pivot_line.clear();
    for (vidx_t r = 0; r < other.rows(); ++r)
      if (other.has(r, step.pivot)) pivot_line.push_back(r);
    total = chk::checked_add(total,
                             wedge_step(pivot_line, other, step, acc, work));
  }
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("la.lines_processed", work.lines);
    BFC_COUNT_ADD("la.wedges", work.wedges);
  }
  return total;
}

}  // namespace bfc::la
