#include <omp.h>

#include "chk/validate.hpp"
#include "chk/tsan_fence.hpp"
#include "la/steps.hpp"
#include "obs/trace.hpp"

namespace bfc::la {

count_t count_unblocked_parallel(const sparse::CsrPattern& lines,
                                 Direction direction, PeerSide peer,
                                 UpdateForm form) {
  BFC_VALIDATE(lines);
  const auto steps = traversal_steps(lines.rows(), direction, peer);
  const auto n_steps = static_cast<std::int64_t>(steps.size());
  count_t total = 0;
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    // Private mark scratch per thread; butterfly contributions of distinct
    // pivots are independent, so the steps parallelise trivially and the
    // integer reduction is deterministic.
    std::vector<std::uint8_t> marked(static_cast<std::size_t>(lines.cols()),
                                     0);
    // One trace span and one work-histogram sample per thread per region,
    // so imbalance across the dynamic schedule is visible per track.
    obs::ScopedTrace thread_span("kernel.unblocked_parallel");
    StepWork work;
#pragma omp for schedule(dynamic, 16) reduction(+ : total)
    for (std::int64_t s = 0; s < n_steps; ++s)
      total = chk::checked_add(
          total, unblocked_step(lines, steps[static_cast<std::size_t>(s)],
                                form, marked, work));
    if constexpr (obs::kMetricsEnabled) {
      BFC_COUNT_ADD("la.lines_processed", work.lines);
      BFC_COUNT_ADD("la.wedges", work.wedges);
      BFC_COUNT_ADD("la.nnz_scanned", work.nnz);
      BFC_HIST_OBSERVE("la.thread_lines", work.lines);
    }
    fence.thread_done();
  }
  fence.join();
  return total;
}

count_t count_wedge_parallel(const sparse::CsrPattern& lines,
                             const sparse::CsrPattern& lines_t,
                             Direction direction, PeerSide peer) {
  require(lines_t.rows() == lines.cols() && lines_t.cols() == lines.rows(),
          "count_wedge_parallel: lines_t is not the transpose of lines");
  if constexpr (chk::kCheckedEnabled) chk::validate_mirror(lines, lines_t);
  const auto steps = traversal_steps(lines.rows(), direction, peer);
  const auto n_steps = static_cast<std::int64_t>(steps.size());
  count_t total = 0;
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    sparse::WedgeAccumulator acc(lines.rows());
    obs::ScopedTrace thread_span("kernel.wedge_parallel");
    StepWork work;
#pragma omp for schedule(dynamic, 64) reduction(+ : total)
    for (std::int64_t s = 0; s < n_steps; ++s) {
      const Step& step = steps[static_cast<std::size_t>(s)];
      total = chk::checked_add(
          total, wedge_step(lines.row(step.pivot), lines_t, step, acc, work));
    }
    if constexpr (obs::kMetricsEnabled) {
      BFC_COUNT_ADD("la.lines_processed", work.lines);
      BFC_COUNT_ADD("la.wedges", work.wedges);
      BFC_HIST_OBSERVE("la.thread_lines", work.lines);
    }
    fence.thread_done();
  }
  fence.join();
  return total;
}

}  // namespace bfc::la
