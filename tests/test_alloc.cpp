// Allocation regression suite: a counting global operator new pins down
// that passing checks and inert span tags cost no heap traffic, and that
// the number of allocations behind a CSR build or a snapshot publish does
// not scale with the edge count. Built as its own executable so the
// replacement operator new sees only these tests. No timing anywhere: every
// assertion is on an exact allocation count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "chk/check.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/spans.hpp"
#include "shard/shard.hpp"
#include "sparse/csr.hpp"
#include "util/common.hpp"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bfc {
namespace {

/// Heap allocations made while running `fn`.
template <typename Fn>
std::int64_t allocations_during(Fn&& fn) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

struct CsrArrays {
  std::vector<offset_t> row_ptr;
  std::vector<vidx_t> col_idx;
};

/// `rows` rows of `per_row` consecutive columns each: a valid, sorted CSR.
CsrArrays banded(vidx_t rows, vidx_t per_row) {
  CsrArrays a;
  a.row_ptr.reserve(static_cast<std::size_t>(rows) + 1);
  a.row_ptr.push_back(0);
  for (vidx_t r = 0; r < rows; ++r) {
    for (vidx_t c = 0; c < per_row; ++c) a.col_idx.push_back(c);
    a.row_ptr.push_back(static_cast<offset_t>(a.col_idx.size()));
  }
  return a;
}

constexpr vidx_t kRows = 100;
constexpr vidx_t kCols = 100;

std::int64_t csr_build_allocations(vidx_t per_row) {
  CsrArrays a = banded(kRows, per_row);
  offset_t nnz = 0;
  const std::int64_t n = allocations_during([&] {
    const sparse::CsrPattern p(kRows, kCols, std::move(a.row_ptr),
                               std::move(a.col_idx));
    nnz = p.nnz();
  });
  EXPECT_EQ(nnz, static_cast<offset_t>(kRows) * per_row);
  return n;
}

std::int64_t graph_build_allocations(vidx_t per_row) {
  CsrArrays a = banded(kRows, per_row);
  sparse::CsrPattern p(kRows, kCols, std::move(a.row_ptr),
                       std::move(a.col_idx));
  offset_t edges = 0;
  const std::int64_t n = allocations_during([&] {
    const graph::BipartiteGraph g(std::move(p));
    edges = g.edge_count();
  });
  EXPECT_EQ(edges, static_cast<offset_t>(kRows) * per_row);
  return n;
}

TEST(AllocFree, CsrPatternBuildDoesNotScaleWithNnz) {
  (void)csr_build_allocations(1);  // first-use metric registration
  const std::int64_t small = csr_build_allocations(1);     // 100 nonzeros
  const std::int64_t large = csr_build_allocations(100);   // 10k nonzeros
  EXPECT_EQ(small, large);
}

TEST(AllocFree, BipartiteGraphBuildDoesNotScaleWithNnz) {
  (void)graph_build_allocations(1);
  const std::int64_t small = graph_build_allocations(1);
  const std::int64_t large = graph_build_allocations(100);
  EXPECT_EQ(small, large);
}

TEST(AllocFree, PassingChecksWithLiteralMessagesAllocateNothing) {
  int ran = 0;
  const std::int64_t n = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      require(i >= 0, "require: literal message");
      chk::enforce(i < 1000, "enforce: literal message");
      ++ran;
    }
  });
  EXPECT_EQ(ran, 1000);
  EXPECT_EQ(n, 0);
}

TEST(AllocFree, InertSpanTagsAllocateNothing) {
  bool armed = true;
  const std::int64_t n = allocations_during([&] {
    obs::Span span(obs::TraceContext{}, "svc.query.global");
    armed = span.armed();
    span.tag("epoch", std::uint64_t{123456789});
    span.tag("outcome", "exact");
  });
  EXPECT_FALSE(armed);
  EXPECT_EQ(n, 0);
}

/// Loads `per_row` edges onto every V1 vertex of a 200 x 200 store,
/// including the diagonal edge (u, u) that publish_allocations cycles.
void load(shard::LocalShard& store, vidx_t per_row) {
  std::vector<svc::EdgeUpdate> batch;
  for (vidx_t u = 0; u < 200; ++u)
    for (vidx_t k = 0; k < per_row; ++k)
      batch.push_back(svc::EdgeUpdate::add(u, (u + k * 3) % 200));
  (void)store.apply(batch);
}

/// Allocations of one publish that deletes and re-adds 20 present edges.
/// Removal keeps each adjacency vector's capacity, so the re-adds never
/// reallocate and the count isolates the snapshot materialisation.
std::int64_t publish_allocations(shard::LocalShard& store) {
  std::vector<svc::EdgeUpdate> batch;
  for (vidx_t u = 0; u < 20; ++u) batch.push_back(svc::EdgeUpdate::del(u, u));
  for (vidx_t u = 0; u < 20; ++u) batch.push_back(svc::EdgeUpdate::add(u, u));
  (void)store.apply(batch);  // warm: metrics, first-touch capacity
  svc::PublishResult r;
  const std::int64_t n =
      allocations_during([&] { r = store.apply(batch); });
  EXPECT_EQ(r.applied, 40);
  return n;
}

TEST(AllocFree, PublishAllocationsDoNotScaleWithEdgeCount) {
  shard::LocalShard small(0, 200, 200, 0, 200);
  shard::LocalShard large(0, 200, 200, 0, 200);
  load(small, 5);   // 1k edges
  load(large, 50);  // 10k edges
  ASSERT_EQ(small.pin()->edges, 1000);
  ASSERT_EQ(large.pin()->edges, 10000);
  EXPECT_EQ(publish_allocations(small), publish_allocations(large));
}

}  // namespace
}  // namespace bfc
