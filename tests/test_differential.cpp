// One differential harness for every production consumer of the shared
// wedge-expansion primitive (sparse/wedge_accumulator.hpp): the eight
// invariants in every engine, update form and thread count, the local
// counts, the baselines, top pairs and the peeling passes. Each runs on the
// same shapes (degenerate, adversarial, one small graph per generator
// family) against oracles that do not use the primitive: the dense
// specifications of Eqs. (7), (19) and (25) and the gb:: transliterations.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <set>
#include <string>

#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/parallel_counts.hpp"
#include "count/top_pairs.hpp"
#include "dense/spec.hpp"
#include "gb/butterflies.hpp"
#include "gen/generators.hpp"
#include "gen/konect_like.hpp"
#include "la/count.hpp"
#include "peel/decompose.hpp"
#include "peel/peeling.hpp"
#include "peel/wing_family.hpp"
#include "test_helpers.hpp"

namespace bfc {
namespace {

struct Shape {
  std::string name;
  std::function<graph::BipartiteGraph()> make;
};

// Failure messages name the shape instead of dumping the object's bytes.
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

std::vector<Shape> shapes() {
  using testing::complete_bipartite;
  using testing::hexagon;
  using testing::star;
  return {
      {"Empty", [] { return graph::BipartiteGraph{}; }},
      {"NoV1", [] { return graph::BipartiteGraph::from_edges(0, 5, {}); }},
      {"NoV2", [] { return graph::BipartiteGraph::from_edges(5, 0, {}); }},
      {"Star", [] { return star(7); }},
      {"SwappedStar", [] { return star(7).swapped_sides(); }},
      {"K4x5", [] { return complete_bipartite(4, 5); }},
      {"Hexagon", [] { return hexagon(); }},
      {"TwinV1Rows",
       [] {
         const dense::DenseMatrix d = {
             {1, 1, 1, 0, 0}, {1, 1, 1, 0, 0}, {0, 1, 0, 1, 1}, {1, 0, 0, 1, 0}};
         return graph::BipartiteGraph(sparse::CsrPattern::from_dense(d));
       }},
      {"ErdosRenyi", [] { return gen::erdos_renyi(14, 11, 0.35, 21); }},
      {"ErdosRenyiM", [] { return gen::erdos_renyi_m(12, 15, 60, 22); }},
      {"ChungLu",
       [] {
         return gen::chung_lu(gen::power_law_weights(18, 0.8),
                              gen::power_law_weights(14, 0.6), 70, 23);
       }},
      {"Configuration",
       [] {
         return gen::configuration_model({4, 4, 3, 3, 2, 2, 1, 1},
                                         {5, 4, 3, 3, 2, 2, 1}, 24);
       }},
      {"BlockCommunity",
       [] {
         gen::BlockCommunitySpec spec;
         spec.block_rows = 5;
         spec.block_cols = 4;
         spec.blocks = 2;
         spec.extra_rows = 3;
         spec.extra_cols = 3;
         spec.p_in = 0.8;
         spec.p_out = 0.05;
         return gen::block_community(spec, 25);
       }},
      {"Preferential",
       [] { return gen::preferential_attachment(16, 10, 3, 26); }},
      {"KonectLike",
       [] {
         return gen::make_konect_like(gen::konect_preset("arXiv cond-mat"),
                                      0.002, 27);
       }},
  };
}

/// Dense Eq. (25) support in CSR edge order.
std::vector<count_t> wing_oracle(const graph::BipartiteGraph& g,
                                 const dense::DenseMatrix& a) {
  const dense::DenseMatrix s = dense::wing_support_spec(a);
  std::vector<count_t> out;
  for (vidx_t u = 0; u < g.n1(); ++u)
    for (const vidx_t v : g.csr().row(u)) out.push_back(s(u, v));
  return out;
}

/// k-tip by literal Eqs. (19)-(22) on the dense matrix: recompute the
/// dense tip vector, drop the peeled side's vertices below k, repeat.
std::vector<std::uint8_t> k_tip_oracle(const dense::DenseMatrix& a, count_t k,
                                       peel::Side side) {
  dense::DenseMatrix m = side == peel::Side::kV1 ? a : a.transpose();
  std::vector<std::uint8_t> kept(static_cast<std::size_t>(m.rows()), 1);
  for (bool changed = true; changed;) {
    changed = false;
    const std::vector<count_t> s = dense::tip_vector_spec(m);
    for (vidx_t r = 0; r < m.rows(); ++r) {
      if (!kept[static_cast<std::size_t>(r)] ||
          s[static_cast<std::size_t>(r)] >= k)
        continue;
      kept[static_cast<std::size_t>(r)] = 0;
      for (vidx_t c = 0; c < m.cols(); ++c) m(r, c) = 0;
      changed = true;
    }
  }
  return kept;
}

class WedgeConsumers : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    g_ = GetParam().make();
    a_ = g_.csr().to_dense();
    xi_ = dense::butterflies_spec(a_);
    ASSERT_EQ(gb::butterflies_spec(g_), xi_) << "oracles disagree";
  }
  graph::BipartiteGraph g_;
  dense::DenseMatrix a_;
  count_t xi_ = 0;
};

TEST_P(WedgeConsumers, EveryInvariantEngineFormAndThreadCount) {
  using Update = la::CountOptions::Update;
  struct Config {
    la::Engine engine;
    Update update;
    vidx_t block_size;
    const char* label;
  };
  const Config configs[] = {
      {la::Engine::kWedge, Update::kAuto, 32, "wedge"},
      {la::Engine::kUnblocked, Update::kFused, 32, "unblocked fused"},
      {la::Engine::kUnblocked, Update::kTwoTerm, 32, "unblocked two-term"},
      {la::Engine::kBlocked, Update::kAuto, 3, "blocked b=3"},
      {la::Engine::kBlocked, Update::kAuto, 64, "blocked b=64"},
  };
  for (const la::Invariant inv : la::all_invariants()) {
    EXPECT_EQ(gb::butterflies_loop(g_, inv), xi_) << la::name(inv);
    for (const Config& c : configs) {
      for (const int threads : {1, 3}) {
        la::CountOptions o;
        o.engine = c.engine;
        o.update = c.update;
        o.block_size = c.block_size;
        o.threads = threads;
        EXPECT_EQ(la::count_butterflies(g_, inv, o), xi_)
            << la::name(inv) << ' ' << c.label << " threads=" << threads;
      }
    }
    la::CountOptions mismatched;
    mismatched.storage = la::Storage::kMismatched;
    EXPECT_EQ(la::count_butterflies(g_, inv, mismatched), xi_)
        << la::name(inv) << " mismatched";
  }
}

TEST_P(WedgeConsumers, GlobalBaselinesAndTopPairs) {
  EXPECT_EQ(count::wedge_reference(g_), xi_);
  EXPECT_EQ(count::wedge_reference_parallel(g_, 3), xi_);
  EXPECT_EQ(count::vertex_priority(g_), xi_);
  const auto all_pairs = [](vidx_t n) {
    return static_cast<std::size_t>(n) * static_cast<std::size_t>(n) + 1;
  };
  count_t sum_v1 = 0, sum_v2 = 0;
  for (const auto& p : count::top_wedge_pairs_v1(g_, all_pairs(g_.n1())))
    sum_v1 += p.butterflies();
  for (const auto& p : count::top_wedge_pairs_v2(g_, all_pairs(g_.n2())))
    sum_v2 += p.butterflies();
  EXPECT_EQ(sum_v1, xi_);
  EXPECT_EQ(sum_v2, xi_);
}

TEST_P(WedgeConsumers, TipVectors) {
  const std::vector<count_t> v1 = dense::tip_vector_spec(a_);
  const std::vector<count_t> v2 = dense::tip_vector_spec_v2(a_);
  EXPECT_EQ(gb::tip_vector(g_), v1);
  EXPECT_EQ(count::butterflies_per_v1(g_), v1);
  EXPECT_EQ(count::butterflies_per_v1_parallel(g_, 3), v1);
  EXPECT_EQ(count::butterflies_per_v2(g_), v2);
  EXPECT_EQ(count::butterflies_per_v2_parallel(g_, 3), v2);
}

TEST_P(WedgeConsumers, EdgeSupport) {
  const std::vector<count_t> s = wing_oracle(g_, a_);
  EXPECT_EQ(gb::wing_support(g_), s);
  EXPECT_EQ(count::support_per_edge(g_), s);
  EXPECT_EQ(count::support_per_edge_parallel(g_, 3), s);
  for (const la::Invariant inv : la::all_invariants())
    EXPECT_EQ(peel::support_family(g_, inv), s) << la::name(inv);
}

TEST_P(WedgeConsumers, TipPeeling) {
  for (const peel::Side side : {peel::Side::kV1, peel::Side::kV2}) {
    const peel::TipDecomposition d = peel::tip_decomposition(g_, side);
    // θ_u ≥ k exactly when u survives the k-tip. Checking every k at and
    // just above each tip number present covers every threshold at which
    // membership can change.
    std::set<count_t> ks = {0, 1};
    for (const count_t theta : d.tip_number) {
      ks.insert(theta);
      ks.insert(theta + 1);
    }
    for (const count_t k : ks) {
      const std::vector<std::uint8_t> oracle = k_tip_oracle(a_, k, side);
      std::vector<std::uint8_t> by_theta;
      for (const count_t theta : d.tip_number)
        by_theta.push_back(theta >= k ? 1 : 0);
      EXPECT_EQ(by_theta, oracle) << "tip_decomposition k=" << k;
      for (const auto algorithm :
           {peel::TipAlgorithm::kRecompute, peel::TipAlgorithm::kLookahead}) {
        EXPECT_EQ(peel::k_tip(g_, k, side, algorithm).kept, oracle)
            << "k_tip k=" << k << " side=" << static_cast<int>(side)
            << " lookahead=" << (algorithm == peel::TipAlgorithm::kLookahead);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WedgeConsumers, ::testing::ValuesIn(shapes()),
    [](const ::testing::TestParamInfo<Shape>& info) { return info.param.name; });

}  // namespace
}  // namespace bfc
