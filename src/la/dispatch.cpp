#include "la/count.hpp"

#include "la/blocked.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/parallel.hpp"

namespace bfc::la {
namespace {

UpdateForm resolve_update(CountOptions::Update update, const InvariantTraits& t) {
  switch (update) {
    case CountOptions::Update::kFused:
      return UpdateForm::kFused;
    case CountOptions::Update::kTwoTerm:
      return UpdateForm::kTwoTerm;
    case CountOptions::Update::kAuto:
      return t.peer == PeerSide::kAfter ? UpdateForm::kFused
                                        : UpdateForm::kTwoTerm;
  }
  throw std::invalid_argument("bad CountOptions::Update");
}

}  // namespace

count_t count_butterflies(const graph::BipartiteGraph& g, Invariant inv,
                          const CountOptions& options) {
  require(options.threads >= 1, "count_butterflies: threads must be >= 1");
  // One span per count whatever the engine, opened here rather than in the
  // kernels so their hot loops stay as they are; the parallel drivers add
  // one span per thread inside it.
  const obs::Span phase("kernel.count");
  BFC_COUNT_ADD("la.count_calls", 1);
  const InvariantTraits t = traits(inv);

  // "Lines" enumerate the partitioned dimension: columns of A for the V2
  // family (CSC view), rows of A for the V1 family (CSR view).
  const sparse::CsrPattern& lines =
      t.family == Family::kColumns ? g.csc() : g.csr();
  const sparse::CsrPattern& lines_t =
      t.family == Family::kColumns ? g.csr() : g.csc();

  if (options.storage == Storage::kMismatched) {
    require(options.engine == Engine::kUnblocked && options.threads == 1,
            "mismatched storage is only modelled for the sequential "
            "unblocked engine");
    // Only the wrong orientation is considered available: rows of `lines_t`
    // are the non-partitioned dimension.
    return count_mismatched(lines_t, t.direction, t.peer);
  }

  if (options.engine == Engine::kBlocked) {
    if (options.threads == 1)
      return count_blocked(lines, t.direction, t.peer, options.block_size);
    ThreadCountGuard guard(options.threads);
    return count_blocked_parallel(lines, t.direction, t.peer,
                                  options.block_size);
  }

  const UpdateForm form = resolve_update(options.update, t);
  if (options.engine == Engine::kUnblocked) {
    if (options.threads == 1)
      return count_unblocked(lines, t.direction, t.peer, form);
    ThreadCountGuard guard(options.threads);
    return count_unblocked_parallel(lines, t.direction, t.peer, form);
  }

  if (options.threads == 1)
    return count_wedge(lines, lines_t, t.direction, t.peer);
  ThreadCountGuard guard(options.threads);
  return count_wedge_parallel(lines, lines_t, t.direction, t.peer);
}

count_t count_butterflies(const graph::BipartiteGraph& g) {
  CountOptions options;
  options.engine = Engine::kWedge;
  // Partition the smaller vertex set, the paper's own selection rule (§V).
  const Invariant inv =
      g.n2() <= g.n1() ? Invariant::kInv2 : Invariant::kInv6;
  return count_butterflies(g, inv, options);
}

}  // namespace bfc::la
