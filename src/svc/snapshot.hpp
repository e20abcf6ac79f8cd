// Immutable epoch-versioned graph snapshots — the unit of isolation in the
// serving layer. A single writer applies edge-update batches through the
// incremental counter and publishes one GraphSnapshot per batch; readers
// pin a snapshot with one shared_ptr copy and every query they issue is
// answered against exactly that epoch, no matter how many epochs the
// writer publishes meanwhile.
#pragma once

#include <cstdint>
#include <memory>

#include "graph/bipartite_graph.hpp"
#include "util/common.hpp"

namespace bfc::svc {

/// One edge mutation in a writer batch.
struct EdgeUpdate {
  vidx_t u = 0;
  vidx_t v = 0;
  bool insert = true;  // false = remove

  [[nodiscard]] static EdgeUpdate add(vidx_t u, vidx_t v) {
    return {u, v, true};
  }
  [[nodiscard]] static EdgeUpdate del(vidx_t u, vidx_t v) {
    return {u, v, false};
  }
};

/// Epoch 0 is the empty graph; epoch k is the state after the k-th batch.
struct GraphSnapshot {
  std::uint64_t epoch = 0;
  graph::BipartiteGraph graph;  // materialised CSR + CSC, immutable
  count_t butterflies = 0;      // exact count at this epoch (incremental)
  offset_t edges = 0;
};

/// Readers hold snapshots by shared_ptr; the graph memory lives until the
/// last pinning reader releases it.
using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

/// Outcome of one publish: a batch applied to one store.
struct PublishResult {
  std::uint64_t epoch = 0;     // epoch of the snapshot just published
  offset_t applied = 0;        // updates that changed the graph
  offset_t ignored = 0;        // duplicate inserts / missing removes
  count_t created = 0;         // butterflies created by this batch
  count_t destroyed = 0;       // butterflies destroyed by this batch
};

}  // namespace bfc::svc
