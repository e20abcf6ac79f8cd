#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "count/baselines.hpp"
#include "gen/generators.hpp"
#include "graph/reorder.hpp"
#include "la/count.hpp"
#include "sparse/ops.hpp"
#include "test_helpers.hpp"

namespace bfc::graph {
namespace {

using bfc::testing::random_graph;

TEST(Relabel, IdentityPermutationIsNoop) {
  const auto g = random_graph(9, 7, 0.4, 1);
  std::vector<vidx_t> id1(9), id2(7);
  std::iota(id1.begin(), id1.end(), 0);
  std::iota(id2.begin(), id2.end(), 0);
  EXPECT_EQ(relabel(g, id1, id2), g);
}

TEST(Relabel, RejectsInvalidPermutations) {
  const auto g = random_graph(4, 4, 0.5, 2);
  EXPECT_THROW(relabel(g, {0, 1, 2}, {0, 1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(relabel(g, {0, 1, 2, 2}, {0, 1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(relabel(g, {0, 1, 2, 4}, {0, 1, 2, 3}), std::invalid_argument);
}

TEST(Relabel, InvalidPermutationMessagesNameTheSideAndProblem) {
  const auto g = random_graph(4, 4, 0.5, 2);
  const auto message = [&](std::vector<vidx_t> p1, std::vector<vidx_t> p2) {
    try {
      (void)relabel(g, p1, p2);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_EQ(message({0, 1, 2}, {0, 1, 2, 3}),
            "relabel v1: permutation size mismatch");
  EXPECT_EQ(message({0, 1, 2, 3}, {0, 1, 3, 3}), "relabel v2: duplicate entry");
  EXPECT_EQ(message({0, 1, -1, 3}, {0, 1, 2, 3}),
            "relabel v1: entry out of range");
}

TEST(Relabel, EdgesMapThroughPermutation) {
  const auto g = BipartiteGraph::from_edges(3, 3, {{0, 0}, {1, 2}, {2, 1}});
  const BipartiteGraph r = relabel(g, {2, 0, 1}, {1, 2, 0});
  EXPECT_EQ(r.edge_count(), 3);
  EXPECT_TRUE(r.has_edge(2, 1));  // (0,0) -> (2,1)
  EXPECT_TRUE(r.has_edge(0, 0));  // (1,2) -> (0,0)
  EXPECT_TRUE(r.has_edge(1, 2));  // (2,1) -> (1,2)
}

class ReorderProperty : public ::testing::TestWithParam<Order> {};

TEST_P(ReorderProperty, PreservesStructuralInvariants) {
  const auto g = random_graph(25, 18, 0.25, 7);
  const Relabeling r = reorder(g, GetParam(), 99);
  EXPECT_EQ(r.graph.n1(), g.n1());
  EXPECT_EQ(r.graph.n2(), g.n2());
  EXPECT_EQ(r.graph.edge_count(), g.edge_count());
  // Butterfly count is invariant under relabeling — across all invariants.
  const count_t expected = count::wedge_reference(g);
  EXPECT_EQ(count::wedge_reference(r.graph), expected);
  for (const la::Invariant inv :
       {la::Invariant::kInv1, la::Invariant::kInv6})
    EXPECT_EQ(la::count_butterflies(r.graph, inv), expected);
  // Degree multiset preserved.
  auto deg_sorted = [](const BipartiteGraph& gr) {
    auto d = sparse::row_degrees(gr.csr());
    std::sort(d.begin(), d.end());
    return d;
  };
  EXPECT_EQ(deg_sorted(r.graph), deg_sorted(g));
}

INSTANTIATE_TEST_SUITE_P(Orders, ReorderProperty,
                         ::testing::Values(Order::kDegreeAscending,
                                           Order::kDegreeDescending,
                                           Order::kRandom));

TEST(Reorder, DegreeOrdersAreMonotone) {
  const auto g = gen::preferential_attachment(200, 150, 3, 11);
  const Relabeling asc = reorder(g, Order::kDegreeAscending);
  const auto deg_asc = sparse::row_degrees(asc.graph.csr());
  for (std::size_t i = 1; i < deg_asc.size(); ++i)
    EXPECT_LE(deg_asc[i - 1], deg_asc[i]);
  const Relabeling desc = reorder(g, Order::kDegreeDescending);
  const auto deg_desc = sparse::row_degrees(desc.graph.csr());
  for (std::size_t i = 1; i < deg_desc.size(); ++i)
    EXPECT_GE(deg_desc[i - 1], deg_desc[i]);
}

TEST(Reorder, RandomOrderDeterministicBySeed) {
  const auto g = random_graph(20, 20, 0.3, 5);
  EXPECT_EQ(reorder(g, Order::kRandom, 1).graph,
            reorder(g, Order::kRandom, 1).graph);
  EXPECT_NE(reorder(g, Order::kRandom, 1).graph,
            reorder(g, Order::kRandom, 2).graph);
}

TEST(PreferentialAttachment, BasicShape) {
  const auto g = gen::preferential_attachment(300, 200, 4, 17);
  EXPECT_EQ(g.n1(), 300);
  EXPECT_EQ(g.n2(), 200);
  EXPECT_EQ(g.edge_count(), 1200);  // every V1 vertex gets exactly 4 edges
  for (vidx_t u = 0; u < g.n1(); ++u) EXPECT_EQ(g.csr().row_degree(u), 4);
  // Hubs emerge on the V2 side: max degree well above the mean (6).
  const auto deg2 = sparse::row_degrees(g.csc());
  EXPECT_GT(*std::max_element(deg2.begin(), deg2.end()), 18);
  EXPECT_THROW(gen::preferential_attachment(10, 5, 6, 1),
               std::invalid_argument);
  EXPECT_THROW(gen::preferential_attachment(0, 5, 1, 1),
               std::invalid_argument);
}

TEST(PreferentialAttachment, DeterministicBySeed) {
  EXPECT_EQ(gen::preferential_attachment(50, 40, 2, 3),
            gen::preferential_attachment(50, 40, 2, 3));
}

}  // namespace
}  // namespace bfc::graph
