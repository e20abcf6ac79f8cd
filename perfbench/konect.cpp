// konect-count phase: offline analytics over the five Fig. 9 stand-ins,
// every call timed from outside and every output checked.
//
// One pass runs, per dataset:
//   count   la::count_butterflies(g)                         (library default)
//   family  eight invariants on Engine::kWedge, 1 and P threads
//   local   count::butterflies_per_v1/_v2 and support_per_edge, plus their
//           _parallel(g, P) forms
//   paper   eight invariants x {kUnblocked + Update::kAuto, kBlocked b=32},
//           1 and P threads (Figs. 10 and 11)
// with P = nproc - 1 (see parallel_threads).
//   peel    peel::tip_decomposition on the smaller side,
//           peel::wing_decomposition and peel::k_tip(k, kLookahead)
#include <string>

#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/parallel_counts.hpp"
#include "gen/konect_like.hpp"
#include "la/count.hpp"
#include "peel/decompose.hpp"
#include "peel/peeling.hpp"
#include "phases.hpp"
#include "reference.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

namespace la = bfc::la;
namespace peel = bfc::peel;
using bfc::count_t;

/// The five Fig. 9 stand-ins in gen::konect_presets() order, as metric keys.
constexpr const char* kDatasetKeys[5] = {"arxiv", "producers", "record_labels",
                                         "occupations", "github"};

struct Scales {
  double full;   // count, family and local jobs
  double paper;  // the O(p·nnz) unblocked traversal and the blocked one
  double peel;
};

Scales scales(const Config& cfg) {
  if (cfg.quick) return {0.02, 0.01, 0.02};
  return {0.25, 0.022, 0.04};
}

/// Threads of the parallel jobs: one vCPU is left to the OS. On a shared
/// 4-vCPU VM, regions using every vCPU stall at their barriers whenever the
/// host preempts one, which spread run-to-run times twice as wide.
int parallel_threads(const Config& cfg) { return std::max(1, cfg.nproc - 1); }

template <typename Fn>
auto timed(const char* span, double& seconds, Fn&& fn) {
  const ScopedSpan s(span);
  const Clock::time_point t0 = Clock::now();
  auto out = fn();
  seconds = seconds_since(t0);
  return out;
}

double sum_sq_degrees(const bfc::sparse::CsrPattern& lines) {
  double total = 0.0;
  for (bfc::vidx_t i = 0; i < lines.rows(); ++i) {
    const auto d = static_cast<double>(lines.row(i).size());
    total += d * d;
  }
  return total;
}

count_t sum(const std::vector<count_t>& v) {
  count_t total = 0;
  for (const count_t x : v) total += x;
  return total;
}

/// One pass: every timed call in a fixed order, with the metrics its time
/// adds to, the exact counts by name, and the host-speed reference samples
/// taken around the datasets.
struct Pass {
  struct Call {
    double seconds;
    std::vector<std::string> metrics;
  };
  std::vector<Call> calls;
  ExactCounts c;
  std::vector<double> ref_ms;

  void add(double seconds, std::vector<std::string> metrics) {
    calls.push_back({seconds, std::move(metrics)});
  }
};

void sample_reference(Reference& ref, Pass& p) {
  const ScopedSpan s("bench.reference");
  for (int i = 0; i < 2; ++i) p.ref_ms.push_back(ref.sample_ms());
}

struct Probes {
  CounterProbe wedges{"la.wedges"};
  CounterProbe nnz{"la.nnz_scanned"};
  CounterProbe panels{"la.panels"};
  CounterProbe lines{"la.lines_processed"};
  CounterProbe rounds{"peel.rounds"};
  CounterProbe moves{"peel.bucket_moves"};
  CounterProbe decremented{"peel.butterflies_decremented"};
};

void run_pass(const Config& cfg, const KonectInputs& in, Reference& ref,
              Probes& pr, Gates& gates, Pass& p) {
  const ScopedSpan pass_span("bench.konect_pass");
  const int par = parallel_threads(cfg);
  for (const KonectDataset& d : in.datasets) {
    sample_reference(ref, p);
    const std::string& key = d.key;
    double t = 0.0;

    // count: the library default.
    count_t x = timed("la.count_butterflies", t,
                      [&] { return la::count_butterflies(d.full); });
    if (cfg.corrupt == "count" && key == "arxiv") ++x;
    gates.check(x == d.xi_full, "la::count_butterflies(" + key + ")");
    p.add(t, {"count_s", "la.default_s." + key});

    // family: the eight invariants on the wedge engine, 1 and P threads.
    for (const int threads : {1, par}) {
      const bool seq = threads == 1;
      const std::int64_t w0 = pr.wedges.value();
      for (const la::Invariant inv : la::all_invariants()) {
        la::CountOptions o;
        o.engine = la::Engine::kWedge;
        o.threads = threads;
        x = timed(seq ? "la.wedge" : "la.wedge_par", t,
                  [&] { return la::count_butterflies(d.full, inv, o); });
        gates.check(x == d.xi_full, std::string("wedge ") + la::name(inv) +
                                        " threads=" + std::to_string(threads) +
                                        " on " + key);
        const std::string inv_key =
            std::to_string(static_cast<int>(inv));
        if (seq) {
          p.add(t, {"family_s", "la.wedge." + key + "_s",
                    "la.wedge.inv" + inv_key + "_s"});
        } else {
          p.add(t, {"family_par_s", "la.wedge.par." + key + "_s"});
        }
      }
      if (seq) p.c["la.wedges"] += pr.wedges.value() - w0;
    }

    // local: per-vertex and per-edge counts, sequential then parallel.
    const auto v1 = timed("count.butterflies_per_v1", t, [&] {
      return bfc::count::butterflies_per_v1(d.full);
    });
    p.add(t, {"local_s", "count.tip_v1_s"});
    const auto v2 = timed("count.butterflies_per_v2", t, [&] {
      return bfc::count::butterflies_per_v2(d.full);
    });
    p.add(t, {"local_s", "count.tip_v2_s"});
    const auto sup = timed("count.support_per_edge", t, [&] {
      return bfc::count::support_per_edge(d.full);
    });
    p.add(t, {"local_s", "count.edge_support_s"});
    gates.check(sum(v1) == 2 * d.xi_full, "sum tip_v1 != 2 Xi on " + key);
    gates.check(sum(v2) == 2 * d.xi_full, "sum tip_v2 != 2 Xi on " + key);
    gates.check(sum(sup) == 4 * d.xi_full,
                "sum edge support != 4 Xi on " + key);

    const auto v1p = timed("count.butterflies_per_v1_parallel", t, [&] {
      return bfc::count::butterflies_per_v1_parallel(d.full, par);
    });
    p.add(t, {"local_par_s", "count.tip_v1.par_s"});
    const auto v2p = timed("count.butterflies_per_v2_parallel", t, [&] {
      return bfc::count::butterflies_per_v2_parallel(d.full, par);
    });
    p.add(t, {"local_par_s", "count.tip_v2.par_s"});
    const auto supp = timed("count.support_per_edge_parallel", t, [&] {
      return bfc::count::support_per_edge_parallel(d.full, par);
    });
    p.add(t, {"local_par_s", "count.edge_support.par_s"});
    gates.check(v1p == v1, "parallel tip_v1 != sequential on " + key);
    gates.check(v2p == v2, "parallel tip_v2 != sequential on " + key);
    gates.check(supp == sup, "parallel edge support != sequential on " + key);

    // paper: the Fig. 10 (1 thread) and Fig. 11 (P threads) traversals.
    for (const int threads : {1, par}) {
      const bool seq = threads == 1;
      const std::int64_t n0 = pr.nnz.value(), k0 = pr.panels.value(),
                         l0 = pr.lines.value();
      for (const la::Invariant inv : la::all_invariants()) {
        for (const la::Engine engine :
             {la::Engine::kUnblocked, la::Engine::kBlocked}) {
          la::CountOptions o;
          o.engine = engine;
          o.update = la::CountOptions::Update::kAuto;
          o.block_size = 32;
          o.threads = threads;
          const bool unblocked = engine == la::Engine::kUnblocked;
          x = timed(unblocked ? "la.unblocked" : "la.blocked", t,
                    [&] { return la::count_butterflies(d.paper, inv, o); });
          gates.check(x == d.xi_paper,
                      std::string(unblocked ? "unblocked " : "blocked ") +
                          la::name(inv) + " threads=" +
                          std::to_string(threads) + " on " + key);
          p.add(t, {seq ? "paper_s" : "paper_par_s",
                    std::string(unblocked ? "la.unblocked" : "la.blocked") +
                        (seq ? "_s" : ".par_s")});
        }
      }
      if (seq) {
        p.c["la.nnz_scanned"] += pr.nnz.value() - n0;
        p.c["la.panels"] += pr.panels.value() - k0;
        p.c["la.lines_processed"] += pr.lines.value() - l0;
      }
    }

    // peel: decompositions at the peel scale, then the k-tip they imply.
    const std::int64_t r0 = pr.rounds.value(), m0 = pr.moves.value(),
                       b0 = pr.decremented.value();
    const peel::Side side =
        d.peel.n1() <= d.peel.n2() ? peel::Side::kV1 : peel::Side::kV2;
    const auto td = timed("peel.tip_decomposition", t, [&] {
      return peel::tip_decomposition(d.peel, side);
    });
    p.add(t, {"peel_s", "peel.tip_decomposition_s"});
    const auto wd = timed("peel.wing_decomposition", t,
                          [&] { return peel::wing_decomposition(d.peel); });
    p.add(t, {"peel_s", "peel.wing_decomposition_s"});
    const count_t k = std::max<count_t>(1, td.max_tip / 4);
    const auto kt = timed("peel.k_tip", t, [&] {
      return peel::k_tip(d.peel, k, side, peel::TipAlgorithm::kLookahead);
    });
    p.add(t, {"peel_s", "peel.k_tip_s"});
    gates.check(peel::tip_subgraph(d.peel, td, k, side) == kt.subgraph,
                "tip_subgraph(tip_decomposition, k) != k_tip on " + key);
    gates.check(wd.wing_number.size() ==
                    static_cast<std::size_t>(d.peel.edge_count()),
                "wing_decomposition size on " + key);
    p.c["peel.rounds"] += pr.rounds.value() - r0;
    p.c["peel.bucket_moves"] += pr.moves.value() - m0;
    p.c["peel.butterflies_decremented"] += pr.decremented.value() - b0;
  }
  sample_reference(ref, p);
}

}  // namespace

KonectInputs make_konect_inputs(const Config& cfg) {
  const Scales sc = scales(cfg);
  KonectInputs in;
  std::uint64_t salt = 0;  // per-dataset seed salt, as the Fig. 9 benches
  std::size_t i = 0;
  for (const auto& preset : bfc::gen::konect_presets()) {
    const std::uint64_t seed = cfg.seed + salt++;
    const ScopedSpan s("gen.make_konect_like");
    KonectDataset d{kDatasetKeys[i++],
                    bfc::gen::make_konect_like(preset, sc.full, seed),
                    bfc::gen::make_konect_like(preset, sc.paper, seed),
                    bfc::gen::make_konect_like(preset, sc.peel, seed)};
    in.edges += d.full.edge_count() + d.paper.edge_count() +
                d.peel.edge_count();
    in.datasets.push_back(std::move(d));
  }
  return in;
}

void prepare_konect_oracles(KonectInputs& in) {
  for (KonectDataset& d : in.datasets) {
    const ScopedSpan s("count.wedge_reference");
    d.xi_full = bfc::count::wedge_reference(d.full);
    d.xi_paper = bfc::count::wedge_reference(d.paper);
    // Invariants 1-4 expand wedges centred on V1 rows, 5-8 on V2 columns.
    d.wedge_model =
        4.0 * (sum_sq_degrees(d.full.csr()) + sum_sq_degrees(d.full.csc()));
  }
}

PhaseResult run_konect(const Config& cfg, const KonectInputs& in,
                       Reference& ref, double budget_s, Gates& gates) {
  Probes probes;
  // The first pass starts the OpenMP pool and faults the work arrays in;
  // its outputs are checked but its times are not kept.
  Pass warm;
  run_pass(cfg, in, ref, probes, gates, warm);
  std::vector<Pass> passes;
  const int min_passes = cfg.quick ? 1 : 5;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(passes.size()) < min_passes ||
         (seconds_since(t0) < budget_s && passes.size() < 30)) {
    passes.emplace_back();
    run_pass(cfg, in, ref, probes, gates, passes.back());
  }

  // Each call's time is its median over passes; a metric is the sum of the
  // medians of the calls it covers, so a stall in one call of one pass
  // moves nothing. Times are scaled by the median of every reference
  // sample of the timed passes (see reference.hpp); scaling each pass by
  // its own dozen samples did not make the metrics steadier.
  PhaseResult r;
  std::vector<double> ref_ms;
  for (const Pass& p : passes)
    ref_ms.insert(ref_ms.end(), p.ref_ms.begin(), p.ref_ms.end());
  const double speed = Reference::kNominalMs / median(ref_ms);
  r.layer["host.ref_ms"] = {median(ref_ms), "ms"};
  std::map<std::string, double> sums;
  for (std::size_t i = 0; i < passes.front().calls.size(); ++i) {
    std::vector<double> times;
    for (const Pass& p : passes) times.push_back(p.calls[i].seconds * speed);
    const double t = median(times);
    for (const std::string& name : passes.front().calls[i].metrics)
      sums[name] += t;
  }
  for (const auto& [name, t] : sums) {
    const bool e2e = name.find('.') == std::string::npos;
    (e2e ? r.e2e : r.layer)[name] = {t, "s"};
  }
  r.layer["konect.passes"] = {static_cast<double>(passes.size()), "count"};

  // Exact counts must repeat on every pass; a mismatch fails the run.
  if constexpr (kCountersPresent) {
    for (const Pass& p : passes)
      gates.check(p.c == passes.front().c,
                  "konect exact counts differ between passes");
    r.exact = passes.front().c;
    for (const auto& [name, v] : r.exact)
      r.layer[name] = {static_cast<double>(v), "count"};
    double model = 0.0;
    for (const KonectDataset& d : in.datasets) model += d.wedge_model;
    const double wedges = static_cast<double>(r.exact["la.wedges"]);
    r.layer["la.wedges_per_s"] = {wedges / r.e2e["family_s"].value, "1/s"};
    r.layer["la.wedge_model_ratio"] = {wedges / model, "ratio"};
    for (const char* name : {"la.wedges", "la.nnz_scanned", "la.panels",
                             "peel.rounds", "peel.bucket_moves"})
      gates.check(r.exact[name] > 0,
                  std::string("vacuous exact count ") + name);
  }
  r.layer["la.par_speedup"] = {
      r.e2e["family_s"].value / r.e2e["family_par_s"].value, "ratio"};
  return r;
}

}  // namespace perfbench
