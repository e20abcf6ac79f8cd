// The two phases every workload runs: konect-count (offline analytics over
// the five Fig. 9 stand-ins) and serve (open-loop reads plus one writer
// against svc::ButterflyService with Config::shards shards).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/bipartite_graph.hpp"
#include "reference.hpp"
#include "svc/service.hpp"

namespace perfbench {

// ---- konect-count --------------------------------------------------------

struct KonectDataset {
  std::string key;               // metric key, e.g. "github"
  bfc::graph::BipartiteGraph full;   // family / count / local jobs
  bfc::graph::BipartiteGraph paper;  // Fig. 10/11 traversals
  bfc::graph::BipartiteGraph peel;   // tip / wing decomposition, k-tip
  bfc::count_t xi_full = 0;   // count::wedge_reference oracles
  bfc::count_t xi_paper = 0;
  double wedge_model = 0.0;  // Σdeg² over the wedge-centre side, 8 invariants
};

struct KonectInputs {
  std::vector<KonectDataset> datasets;
  std::int64_t edges = 0;  // generated edges over every graph above
};

/// The timed part of set-up: generates every input graph (CSR + CSC).
[[nodiscard]] KonectInputs make_konect_inputs(const Config& cfg);

/// Untimed verification set-up: the wedge_reference oracles and the
/// Σdeg² cost model.
void prepare_konect_oracles(KonectInputs& in);

/// Runs passes of every konect-count job until `budget_s` is spent (at
/// least five passes, one in quick mode) after one warm-up pass; metrics
/// are per-pass medians of times scaled by the host-speed reference.
[[nodiscard]] PhaseResult run_konect(const Config& cfg, const KonectInputs& in,
                                     Reference& ref, double budget_s,
                                     Gates& gates);

// ---- serve -----------------------------------------------------------------

struct ServeInputs {
  bfc::graph::BipartiteGraph initial;  // arXiv stand-in, the first epoch
  std::unique_ptr<bfc::svc::ButterflyService> service;
};

/// The timed part of set-up: generates the graph, builds the service and
/// applies the initial load.
[[nodiscard]] ServeInputs make_serve_inputs(const Config& cfg);

/// A warm-up segment then the fixed-rate segment, with the writer
/// publishing (and sampling the host-speed reference) on its schedule
/// throughout; ends with the correctness gates.
[[nodiscard]] PhaseResult run_serve(const Config& cfg, ServeInputs& in,
                                    Reference& ref, double budget_s,
                                    Gates& gates);

}  // namespace perfbench
