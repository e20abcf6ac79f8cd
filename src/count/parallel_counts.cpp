#include "count/parallel_counts.hpp"

#include "chk/tsan_fence.hpp"
#include "count/steps.hpp"
#include "util/parallel.hpp"

namespace bfc::count {
namespace {

/// Parallel per-line butterfly counts over the rows of `lines` (transpose
/// in `lines_t`): count/per_vertex.cpp's row body with the outer loop
/// distributed.
std::vector<count_t> per_line_parallel(const sparse::CsrPattern& lines,
                                       const sparse::CsrPattern& lines_t,
                                       int threads) {
  const vidx_t n = lines.rows();
  std::vector<count_t> out(static_cast<std::size_t>(n), 0);
  ThreadCountGuard guard(threads);
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    sparse::WedgeAccumulator acc(n);
#pragma omp for schedule(dynamic, 64)
    for (vidx_t i = 0; i < n; ++i)
      out[static_cast<std::size_t>(i)] =
          detail::line_butterflies(lines, lines_t, i, acc);
    fence.thread_done();
  }
  fence.join();
  return out;
}

}  // namespace

count_t wedge_reference_parallel(const graph::BipartiteGraph& g,
                                 int threads) {
  require(threads >= 1, "wedge_reference_parallel: threads must be >= 1");
  // Expand from the side with the cheaper wedge sum, as in the sequential
  // reference; only pairs j > i are charged, so halve nothing.
  const bool v1_side =
      detail::wedge_work(g.csc()) <= detail::wedge_work(g.csr());
  const sparse::CsrPattern& lines = v1_side ? g.csr() : g.csc();
  const sparse::CsrPattern& lines_t = v1_side ? g.csc() : g.csr();

  const vidx_t n = lines.rows();
  count_t total = 0;
  ThreadCountGuard guard(threads);
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    sparse::WedgeAccumulator acc(n);
#pragma omp for schedule(dynamic, 64) reduction(+ : total)
    for (vidx_t i = 0; i < n; ++i) {
      acc.expand(lines.row(i), lines_t, [i](vidx_t j) { return j > i; });
      acc.drain([&total](vidx_t, count_t w) {
        total = chk::checked_add(total, chk::checked_choose2(w));
      });
    }
    fence.thread_done();
  }
  fence.join();
  return total;
}

std::vector<count_t> butterflies_per_v1_parallel(
    const graph::BipartiteGraph& g, int threads) {
  require(threads >= 1, "butterflies_per_v1_parallel: threads must be >= 1");
  return per_line_parallel(g.csr(), g.csc(), threads);
}

std::vector<count_t> butterflies_per_v2_parallel(
    const graph::BipartiteGraph& g, int threads) {
  require(threads >= 1, "butterflies_per_v2_parallel: threads must be >= 1");
  return per_line_parallel(g.csc(), g.csr(), threads);
}

std::vector<count_t> support_per_edge_parallel(const graph::BipartiteGraph& g,
                                               int threads) {
  require(threads >= 1, "support_per_edge_parallel: threads must be >= 1");
  const auto& a = g.csr();
  std::vector<count_t> support(static_cast<std::size_t>(a.nnz()), 0);
  ThreadCountGuard guard(threads);
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    sparse::WedgeAccumulator acc(a.rows());
#pragma omp for schedule(dynamic, 32)
    for (vidx_t u = 0; u < a.rows(); ++u)
      detail::support_row(a, g.csc(), u, acc, support);
    fence.thread_done();
  }
  fence.join();
  return support;
}

}  // namespace bfc::count
