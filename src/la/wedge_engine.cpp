#include "chk/validate.hpp"
#include "la/steps.hpp"

namespace bfc::la {

count_t count_wedge(const sparse::CsrPattern& lines,
                    const sparse::CsrPattern& lines_t, Direction direction,
                    PeerSide peer) {
  require(lines_t.rows() == lines.cols() && lines_t.cols() == lines.rows(),
          "count_wedge: lines_t is not the transpose of lines");
  if constexpr (chk::kCheckedEnabled) chk::validate_mirror(lines, lines_t);
  sparse::WedgeAccumulator acc(lines.rows());
  count_t total = 0;
  StepWork work;
  for (const Step& step : traversal_steps(lines.rows(), direction, peer))
    total = chk::checked_add(
        total, wedge_step(lines.row(step.pivot), lines_t, step, acc, work));
  if constexpr (obs::kMetricsEnabled) {
    BFC_COUNT_ADD("la.lines_processed", work.lines);
    BFC_COUNT_ADD("la.wedges", work.wedges);
  }
  return total;
}

}  // namespace bfc::la
