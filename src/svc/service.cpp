#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "chk/checked_math.hpp"
#include "count/approx.hpp"
#include "count/local_counts.hpp"
#include "graph/bipartite_graph.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "shard/router.hpp"
#include "shard/transport.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"
#include "util/timer.hpp"

namespace bfc::svc {
namespace {

template <typename T>
std::future<T> ready_future(T value) {
  std::promise<T> p;
  p.set_value(std::move(value));
  return p.get_future();
}

template <typename T>
std::future<T> overload_future(OverloadError::Reason reason) {
  std::promise<T> p;
  p.set_exception(std::make_exception_ptr(OverloadError(reason)));
  return p.get_future();
}

/// Support of one present edge, Eq. (25) evaluated for a single (u, v):
/// Σ_{w∈N(v)} |N(u)∩N(w)| − deg(u) − deg(v) + 1. No global pass. On a
/// shard graph this is exactly the same-shard part of the support: every
/// edge of u and of its same-shard wedge mates is local to the shard, so
/// the formula is exact over wedge mates the shard owns.
count_t support_of_edge(const graph::BipartiteGraph& g, vidx_t u, vidx_t v) {
  const std::span<const vidx_t> nu = g.neighbors_of_v1(u);
  const std::span<const vidx_t> nv = g.neighbors_of_v2(v);
  count_t sum = 0;
  for (const vidx_t w : nv)
    sum = chk::checked_add(sum, sparse::intersection_size(nu, g.neighbors_of_v1(w)));
  return sum - static_cast<count_t>(nu.size()) -
         static_cast<count_t>(nv.size()) + 1;
}

// Request spans outlive the submitting frame (the exact lambda runs on a
// pool worker, the fallback possibly on a third thread), so they live
// behind a shared_ptr — allocated only when collection is actually on, so
// the disabled path stays allocation-free. Exactly one of the capturing
// closures runs; Span::close() is idempotent and tags on a closed span are
// dropped, so the helpers need no coordination.
using SpanPtr = std::shared_ptr<obs::Span>;

SpanPtr open_span(const obs::TraceContext& ctx, const char* name) {
  if (!obs::SpanLog::enabled() || !ctx.active()) return nullptr;
  return std::make_shared<obs::Span>(ctx, name);
}

void span_tag(const SpanPtr& span, const char* key, std::string_view value) {
  if (span) span->tag(key, value);
}

void span_tag(const SpanPtr& span, const char* key, std::uint64_t value) {
  if (span) span->tag(key, value);
}

obs::TraceContext span_ctx(const SpanPtr& span) {
  return span ? span->context() : obs::TraceContext{};
}

void span_close(const SpanPtr& span) {
  if (span) span->close();
}

/// Tags an answer's fidelity as the query's outcome and closes its span.
template <typename T>
QueryResult<T> settle(const SpanPtr& span, QueryResult<T> r) {
  span_tag(span, "outcome", fidelity_name(r.fidelity));
  span_close(span);
  return r;
}

/// Same for a degrade ladder's verdict, which may be "no rung left": shed.
template <typename T>
std::optional<QueryResult<T>> settle(const SpanPtr& span,
                                     std::optional<QueryResult<T>> d) {
  span_tag(span, "outcome", d ? fidelity_name(d->fidelity) : "shed");
  span_close(span);
  return d;
}

/// The stale_shards bit of a routed query's owner range, if it was dark.
std::uint64_t owner_mask(const shard::ShardView& view, int owner) {
  return view.shard_stale(owner) ? std::uint64_t{1} << owner : 0;
}

/// Shards [lo, hi) whose tip passes a tip answer sums: the owner alone for
/// a routed V1 vertex (owner >= 0), every shard for a V2 vertex.
std::pair<int, int> tip_shards(const shard::ShardView& view, int owner) {
  return owner >= 0 ? std::pair{owner, owner + 1}
                    : std::pair{0, view.shard_count()};
}

std::array<SloPolicy, kQueryKinds> slo_policies(const ServiceOptions& o) {
  std::array<SloPolicy, kQueryKinds> policies;
  for (std::size_t k = 0; k < kQueryKinds; ++k)
    policies[k] = SloPolicy{o.slo_target_us[k], o.slo_objective};
  return policies;
}

}  // namespace

ButterflyService::ButterflyService(vidx_t n1, vidx_t n2,
                                   ServiceOptions options)
    : shards_(options.shards),
      store_(n1, n2, options.shards),
      // One tier per shard plus, past them, the composed-answer tier. A
      // one-shard view's signature is its epoch, so it composes in the
      // shard's own tier instead: one entry per answer, one retire scan.
      cache_(options.cache_capacity,
             options.shards > 1 ? options.shards + 1 : 1),
      memo_keep_epochs_(options.memo_keep_epochs),
      degrade_queue_depth_(options.degrade_queue_depth),
      degrade_p95_us_(options.degrade_p95_us),
      approx_samples_(options.approx_samples),
      slo_(slo_policies(options), kLatencyWindow),
      pool_(ExecutorOptions{options.threads, options.max_queue,
                            options.shed_policy}) {
  require(options.memo_keep_epochs >= 1,
          "ButterflyService: memo_keep_epochs must be >= 1");
  require(options.approx_samples >= 1,
          "ButterflyService: approx_samples must be >= 1");
  if (shards_ > 1) {
    shard_slo_.reserve(static_cast<std::size_t>(shards_));
    for (int k = 0; k < shards_; ++k)
      shard_slo_.push_back(std::make_unique<SloTracker>(
          slo_policies(options), kLatencyWindow, /*bind_metrics=*/false));
    if constexpr (obs::kMetricsEnabled) {
      auto& reg = obs::Registry::instance();
      shard_hit_gauges_.assign(static_cast<std::size_t>(shards_), nullptr);
      shard_degraded_.assign(static_cast<std::size_t>(shards_), nullptr);
      for (int k = 0; k < shards_; ++k) {
        const std::string prefix = "svc.shard." + std::to_string(k);
        const auto kk = static_cast<std::size_t>(k);
        shard_hit_gauges_[kk] = &reg.gauge(prefix + ".cache_hit_rate");
        shard_degraded_[kk] = &reg.counter(prefix + ".degraded");
      }
    }
  }
  restart_view_generation();
}

PublishResult ButterflyService::apply_updates(
    std::span<const EdgeUpdate> batch) {
  // Route by V1 owner and publish shard by shard — the single-writer
  // convenience path over the same machinery concurrent writers use.
  const auto buckets = shard::ShardRouter(store_.partition()).bucket(batch);
  PublishResult total{};
  {
    const MutexLock lock(view_mu_);
    total.epoch = cur_version_;  // an empty batch publishes nothing
  }
  for (int k = 0; k < shards_; ++k) {
    const auto& sub = buckets[static_cast<std::size_t>(k)];
    if (sub.empty()) continue;  // untouched shards do not publish
    const auto [r, version] = publish(k, sub);
    total.applied += r.applied;
    total.ignored += r.ignored;
    total.created = chk::checked_add(total.created, r.created);
    total.destroyed = chk::checked_add(total.destroyed, r.destroyed);
    total.epoch = version;
  }
  return total;
}

PublishResult ButterflyService::apply_updates_shard(
    int k, std::span<const EdgeUpdate> batch) {
  require(k >= 0 && k < shards_, "apply_updates_shard: shard out of range");
  return publish(k, batch).first;
}

std::pair<PublishResult, std::uint64_t> ButterflyService::publish(
    int k, std::span<const EdgeUpdate> batch) {
  const PublishResult result = store_.apply_to_shard(k, batch);
  obs::FlightRecorder::record("publish", "",
                              static_cast<std::int64_t>(result.epoch),
                              static_cast<std::int64_t>(result.applied));
  // Roll the (cur, prev) view generation. A concurrent writer may have
  // rolled the pair past this publish's signature already; the pair only
  // ever needs to be "two recent signatures" (signature-keyed entries can
  // never be wrong, only unreachable), so skipping is harmless.
  const shard::ShardViewPtr v = store_.view();  // pin BEFORE locking
  std::array<std::uint64_t, 2> keep{};
  bool rolled = false;
  {
    const MutexLock lock(view_mu_);
    if (v->signature != cur_sig_) {
      prev_sig_ = cur_sig_;
      prev_version_ = cur_version_;
      cur_sig_ = v->signature;
      cur_version_ = v->version;
      keep = {cur_sig_, prev_sig_};
      rolled = true;
    }
  }
  // Only shard k's tier retires, down to the just-retired epoch (the
  // stale-answer tier); the other shards' entries stay keyed by their own
  // (unchanged) epochs with their hit streaks intact — the point of one
  // cache tier per shard. The composed tier keeps the two live
  // generations. One scan does both.
  cache_.retire(k, result.epoch == 0 ? 0 : result.epoch - 1,
                rolled ? view_tier() : -1, keep);
  publish_shard_gauge(k);
  {
    const MutexLock lock(memo_mu_);
    std::erase_if(tip_memo_, [&](const auto& entry) {
      return std::get<0>(entry.first) == k &&
             std::get<1>(entry.first) + memo_keep_epochs_ <= result.epoch;
    });
  }
  return {result, v->version};
}

void ButterflyService::persist(const std::string& path) const {
  try {
    store_.persist(path);
  } catch (...) {
    obs::FlightRecorder::dump_on_fault("persist failed");
    throw;
  }
  obs::FlightRecorder::record("persist", path.c_str(),
                              static_cast<std::int64_t>(store_.epoch()));
}

void ButterflyService::restore(const std::string& path) {
  try {
    store_.restore(path);  // throws on corruption, store unchanged
  } catch (...) {
    obs::FlightRecorder::dump_on_fault("restore failed");
    throw;
  }
  obs::FlightRecorder::record("restore", path.c_str(),
                              static_cast<std::int64_t>(store_.epoch()));
  // The epoch sequence restarted: every cached/memoised answer is keyed by
  // epochs that no longer mean anything. That includes the cross-aggregate
  // memo — its view signatures hash per-shard epochs, so a post-restore
  // update stream could re-reach a memoised epoch vector with different
  // graph content and serve a pre-restore aggregate as kExact.
  flush();
}

void ButterflyService::swap_shard(int k, shard::ShardHandlePtr handle) {
  store_.swap_shard(k, std::move(handle));
  // The new handle's epoch sequence need not extend the old one (a remote
  // host starts at its own epoch), so every epoch/signature-keyed tier is
  // meaningless — same flush discipline as restore().
  flush();
}

void ButterflyService::flush() {
  cache_.invalidate_all();
  scatter_.clear();
  {
    const MutexLock lock(memo_mu_);
    tip_memo_.clear();
  }
  restart_view_generation();
}

void ButterflyService::restart_view_generation() {
  const shard::ShardViewPtr v = store_.view();
  const MutexLock lock(view_mu_);
  // cur == prev: no previous generation — the stale-view rung stays empty
  // until the next publish.
  cur_sig_ = prev_sig_ = v->signature;
  cur_version_ = prev_version_ = v->version;
}

SnapshotPtr ButterflyService::snapshot() const {
  // One shard: its snapshot is the whole graph, pinned in O(1).
  if (shards_ == 1) return store_.shard_snapshot(0);
  // Materialise the union graph of one pinned view. Owned ranges are
  // disjoint, so concatenating each shard's owned rows rebuilds the exact
  // single-store edge set; the count is Σ locals + cross — the identity the
  // drift checks verify.
  const shard::ShardViewPtr view = store_.view();
  const shard::RangePartition& part = store_.partition();
  std::vector<std::pair<vidx_t, vidx_t>> edges;
  edges.reserve(static_cast<std::size_t>(view->edges()));
  for (int k = 0; k < view->shard_count(); ++k) {
    const graph::BipartiteGraph& g =
        view->shards[static_cast<std::size_t>(k)]->graph;
    for (vidx_t u = part.begin(k); u < part.end(k); ++u)
      for (const vidx_t v : g.neighbors_of_v1(u)) edges.emplace_back(u, v);
  }
  const shard::CrossAggregatePtr agg = scatter_.cross(view);
  GraphSnapshot snap;
  snap.epoch = view->version;
  snap.graph =
      graph::BipartiteGraph::from_edges(store_.n1(), store_.n2(), edges);
  snap.butterflies = shard::ScatterGather::global_count(*view, *agg);
  snap.edges = view->edges();
  return std::make_shared<const GraphSnapshot>(std::move(snap));
}

// ---- the query path ---------------------------------------------------------

template <typename T>
QueryResult<T> ButterflyService::at_view(T value, const shard::ShardView& view,
                                         std::uint64_t qmask) {
  if (qmask != 0) note_stale_mask(qmask);
  return QueryResult<T>{std::move(value), view.version,
                        qmask != 0 ? Fidelity::kStale : Fidelity::kExact,
                        qmask};
}

template <typename T>
std::optional<QueryResult<T>> ButterflyService::cached(
    const CacheKey& key, const shard::ShardView& view, std::uint64_t qmask,
    int owner, const SpanPtr& span) {
  const auto hit = cache_.get(key);
  span_tag(span, "cache", hit ? "hit" : "miss");
  if (!hit) return std::nullopt;
  observe_latency(key.kind, 0.0, owner);
  return at_view(std::get<T>(*hit), view, qmask);
}

template <typename T, typename Exact, typename Ladder>
std::future<QueryResult<T>> ButterflyService::serve(const Deadline& deadline,
                                                    const SpanPtr& span,
                                                    int owner, Exact exact,
                                                    Ladder ladder) {
  // Rung 0 of the ladder: already drowning — answer degraded right now
  // instead of queueing exact work nobody can afford.
  if (overloaded(owner)) {
    if (auto d = ladder()) {
      span_tag(span, "degrade", "admission");
      return ready_future(settle(span, std::move(*d)));
    }
  }
  auto fallback = [ladder, span] {
    span_tag(span, "degrade", "abandoned");
    return settle(span, ladder());
  };
  auto run = [exact, ladder, span, deadline,
              trace = span_ctx(span)]() -> QueryResult<T> {
    try {
      return exact(deadline, trace);
    } catch (const CancelledError&) {
      // The deadline fired mid-pass; the kernel gave up cooperatively.
    } catch (const shard::ShardUnavailableError&) {
      // A cross-process leg died mid-compute: same ladder as a deadline
      // trip — the range isolation contract forbids failing the query.
    }
    BFC_COUNT_ADD("svc.kernels_cancelled", 1);
    span_tag(span, "cancelled", "true");
    if (auto d = settle(span, ladder())) return std::move(*d);
    throw OverloadError(OverloadError::Reason::kDeadline);
  };
  if (auto fut = pool_.try_submit(std::move(run), deadline,
                                  std::move(fallback), span_ctx(span)))
    return std::move(*fut);
  // Refused at admission: degrade on the caller's thread.
  span_tag(span, "rejected", "true");
  if (auto d = settle(span, ladder())) return ready_future(std::move(*d));
  return overload_future<QueryResult<T>>(OverloadError::Reason::kRejected);
}

template <typename T, typename Compute>
T ButterflyService::shard_component(const CacheKey& key, Compute compute) {
  // One shard composes in its own tier: the caller's entry is this one.
  if (key.tier == view_tier()) return compute();
  const auto hit = cache_.get(key);
  T value = hit ? std::get<T>(*hit) : compute();
  if (!hit) cache_.put(key, CacheValue{value});
  publish_shard_gauge(key.tier);
  return value;
}

std::future<QueryResult<count_t>> ButterflyService::global_count(Request req) {
  const shard::ShardViewPtr view = resolve_view(req);
  BFC_COUNT_ADD("svc.queries", 1);
  note_scatter(QueryKind::kGlobalCount, *view);
  const SpanPtr span = open_span(root_context(req), "svc.query.global");
  span_tag(span, "epoch", view->version);
  // Partial-result contract: a scatter query folds every range in, so any
  // unreachable shard (its snapshot is the last known epoch, not a fresh
  // pin) downgrades the whole answer to kStale with the per-shard bits in
  // stale_shards. The VALUE is still exact for the pinned epoch vector —
  // only freshness is in question.
  const std::uint64_t qmask = view->stale_mask;
  // No cross pass to wait for (one shard): the writer-maintained count is
  // the answer — one field read, never queued, never degraded.
  if (const shard::CrossAggregatePtr none =
          shard::ScatterGather::without_pass(*view)) {
    observe_latency(QueryKind::kGlobalCount, 0.0);
    return ready_future(settle(
        span, at_view(shard::ScatterGather::global_count(*view, *none),
                      *view, qmask)));
  }
  const CacheKey key{view->signature, QueryKind::kGlobalCount, 0, 0,
                     view_tier()};
  if (auto hit = cached<count_t>(key, *view, qmask, -1, span))
    return ready_future(settle(span, std::move(*hit)));
  auto ladder = [this, view]() -> std::optional<QueryResult<count_t>> {
    // Rung 1: the previous view generation's composed answer.
    if (auto stale =
            stale_view<count_t>(*view, QueryKind::kGlobalCount, 0, 0)) {
      note_stale(-1);
      return stale;
    }
    // Rung 2: the freshest COMPLETED cross aggregate of any signature plus
    // the pinned locals — mixed freshness, honestly tagged stale.
    if (auto agg = scatter_.latest_ready()) {
      note_stale(-1);
      return QueryResult<count_t>{
          chk::checked_add(view->local_butterflies(), (*agg)->butterflies),
          view->version, Fidelity::kStale};
    }
    return std::nullopt;
  };
  auto exact = [this, view, key, qmask, span, timer = Timer()](
                   const Deadline& deadline, const obs::TraceContext& trace) {
    const shard::CrossAggregatePtr agg =
        scatter_.cross(view, deadline.token(), trace);
    const count_t value = shard::ScatterGather::global_count(*view, *agg);
    cache_.put(key, value);
    observe_latency(QueryKind::kGlobalCount, timer.seconds() * 1e6);
    return settle(span, at_view(value, *view, qmask));
  };
  return serve<count_t>(req.deadline, span, -1, std::move(exact),
                        std::move(ladder));
}

std::future<QueryResult<count_t>> ButterflyService::vertex_tip_v1(
    vidx_t u, Request req) {
  require(u >= 0 && u < store_.n1(), "vertex_tip_v1: vertex out of range");
  return vertex_tip(u, /*v1_side=*/true, std::move(req));
}

std::future<QueryResult<count_t>> ButterflyService::vertex_tip_v2(
    vidx_t v, Request req) {
  require(v >= 0 && v < store_.n2(), "vertex_tip_v2: vertex out of range");
  return vertex_tip(v, /*v1_side=*/false, std::move(req));
}

std::future<QueryResult<count_t>> ButterflyService::vertex_tip(vidx_t vertex,
                                                               bool v1_side,
                                                               Request req) {
  const QueryKind kind =
      v1_side ? QueryKind::kVertexTipV1 : QueryKind::kVertexTipV2;
  const shard::ShardViewPtr view = resolve_view(req);
  // tip_v1 routes to the owner shard; tip_v2 gathers over all of them.
  const int owner = v1_side ? store_.partition().owner(vertex) : -1;
  BFC_COUNT_ADD("svc.queries", 1);
  note_scatter(kind, *view);
  const SpanPtr span = open_span(
      root_context(req), v1_side ? "svc.query.tip_v1" : "svc.query.tip_v2");
  span_tag(span, "epoch", view->version);
  if (owner >= 0) span_tag(span, "shard", static_cast<std::uint64_t>(owner));
  // Routed (tip_v1): stale only when the OWNER range is dark — a dead
  // shard can take no publishes, so every other range's answer is exact
  // for the pinned view (the per-vertex locality argument). Scattered
  // (tip_v2): any dark shard taints the whole sum.
  const std::uint64_t qmask =
      v1_side ? owner_mask(*view, owner) : view->stale_mask;
  const CacheKey key{view->signature, kind, vertex, 0, view_tier()};
  if (auto hit = cached<count_t>(key, *view, qmask, owner, span))
    return ready_future(settle(span, std::move(*hit)));
  auto ladder = [this, view, vertex, v1_side, owner] {
    return degraded_tip(view, vertex, v1_side, owner);
  };
  auto exact = [this, view, key, vertex, v1_side, owner, qmask, span,
                timer = Timer()](const Deadline& deadline,
                                 const obs::TraceContext& trace) {
    const shard::CrossAggregatePtr agg =
        scatter_.cross(view, deadline.token(), trace);
    count_t value = v1_side ? agg->tip_v1(vertex) : agg->tip_v2(vertex);
    // tip_v1's local part lives wholly on its owner shard; every shard sees
    // some of a V2 vertex's butterflies, and their tips sum.
    const auto [lo, hi] = tip_shards(*view, owner);
    for (int s = lo; s < hi; ++s) {
      const TipVector tips =
          tips_for(s, view->shards[static_cast<std::size_t>(s)], v1_side,
                   deadline.token(), trace);
      value =
          chk::checked_add(value, (*tips)[static_cast<std::size_t>(vertex)]);
    }
    cache_.put(key, value);
    observe_latency(key.kind, timer.seconds() * 1e6, owner);
    return settle(span, at_view(value, *view, qmask));
  };
  return serve<count_t>(req.deadline, span, owner, std::move(exact),
                        std::move(ladder));
}

std::future<QueryResult<count_t>> ButterflyService::edge_support(vidx_t u,
                                                                 vidx_t v,
                                                                 Request req) {
  require(u >= 0 && u < store_.n1() && v >= 0 && v < store_.n2(),
          "edge_support: vertex out of range");
  const shard::ShardViewPtr view = resolve_view(req);
  const int owner = store_.partition().owner(u);
  BFC_COUNT_ADD("svc.queries", 1);
  const SpanPtr span = open_span(root_context(req), "svc.query.edge");
  span_tag(span, "epoch", view->version);
  span_tag(span, "shard", static_cast<std::uint64_t>(owner));
  // Routed query: only the owner range's darkness taints the answer (see
  // vertex_tip).
  const std::uint64_t qmask = owner_mask(*view, owner);
  const CacheKey key{view->signature, QueryKind::kEdgeSupport, u, v,
                     view_tier()};
  if (auto hit = cached<count_t>(key, *view, qmask, owner, span))
    return ready_future(settle(span, std::move(*hit)));
  // Shed/overload path: the previous generation's cached support, else the
  // exact computation inline — a row scan per shard, cheap enough to run on
  // the shedding thread rather than give up fidelity.
  auto ladder = [this, view, key, owner, u, v, qmask,
                 span]() -> std::optional<QueryResult<count_t>> {
    if (auto stale =
            stale_view<count_t>(*view, QueryKind::kEdgeSupport, u, v)) {
      note_stale(owner);
      return stale;
    }
    const count_t value = support_at(*view, owner, u, v);
    cache_.put(key, value);
    BFC_COUNT_ADD("svc.inline_answers", 1);
    span_tag(span, "inline", "true");
    return at_view(value, *view, qmask);
  };
  auto exact = [this, view, key, owner, u, v, qmask, span, timer = Timer()](
                   const Deadline&, const obs::TraceContext&) {
    const count_t value = support_at(*view, owner, u, v);
    cache_.put(key, value);
    observe_latency(QueryKind::kEdgeSupport, timer.seconds() * 1e6, owner);
    return settle(span, at_view(value, *view, qmask));
  };
  return serve<count_t>(req.deadline, span, owner, std::move(exact),
                        std::move(ladder));
}

std::future<QueryResult<TopPairsPtr>> ButterflyService::top_pairs(
    std::size_t k, Request req) {
  const shard::ShardViewPtr view = resolve_view(req);
  BFC_COUNT_ADD("svc.queries", 1);
  note_scatter(QueryKind::kTopPairs, *view);
  const SpanPtr span = open_span(root_context(req), "svc.query.top_pairs");
  span_tag(span, "epoch", view->version);
  // Scatter query: any dark shard taints the merged list (see
  // global_count).
  const std::uint64_t qmask = view->stale_mask;
  const auto kk = static_cast<std::int64_t>(k);
  const CacheKey key{view->signature, QueryKind::kTopPairs, kk, 0,
                     view_tier()};
  if (auto hit = cached<TopPairsPtr>(key, *view, qmask, -1, span))
    return ready_future(settle(span, std::move(*hit)));
  // Only stale rung: there is no cheap sampled substitute for an exact
  // top-k list, so with no previous-generation list the query is shed.
  auto ladder = [this, view, kk] {
    auto d = stale_view<TopPairsPtr>(*view, QueryKind::kTopPairs, kk, 0);
    if (d) note_stale(-1);
    return d;
  };
  auto exact = [this, view, key, k, kk, qmask, span, timer = Timer()](
                   const Deadline& deadline, const obs::TraceContext& trace) {
    const shard::CrossAggregatePtr agg =
        scatter_.cross(view, deadline.token(), trace);
    std::vector<std::vector<count::VertexPair>> per_shard;
    per_shard.reserve(view->shards.size());
    for (int s = 0; s < view->shard_count(); ++s) {
      const SnapshotPtr& snap = view->shards[static_cast<std::size_t>(s)];
      per_shard.push_back(*shard_component<TopPairsPtr>(
          CacheKey{snap->epoch, QueryKind::kTopPairs, kk, 0, s}, [&] {
            return std::make_shared<const std::vector<count::VertexPair>>(
                count::top_wedge_pairs_v1(snap->graph, k));
          }));
    }
    auto pairs = std::make_shared<const std::vector<count::VertexPair>>(
        shard::ScatterGather::merge_top_pairs(per_shard, agg->pairs, k));
    cache_.put(key, CacheValue{pairs});
    observe_latency(QueryKind::kTopPairs, timer.seconds() * 1e6);
    return settle(span, at_view(TopPairsPtr(pairs), *view, qmask));
  };
  return serve<TopPairsPtr>(req.deadline, span, -1, std::move(exact),
                            std::move(ladder));
}

count_t ButterflyService::support_at(const shard::ShardView& view, int owner,
                                     vidx_t u, vidx_t v) {
  const SnapshotPtr& snap = view.shards[static_cast<std::size_t>(owner)];
  // All of u's edges live on its owner shard: absent there means absent.
  if (!snap->graph.has_edge(u, v)) return 0;
  // The same-shard component depends only on shard `owner`'s state, so it
  // caches in that shard's tier keyed by the SHARD epoch — it survives
  // publishes on every other shard.
  const count_t local = shard_component<count_t>(
      CacheKey{snap->epoch, QueryKind::kEdgeSupport, u, v, owner},
      [&] { return support_of_edge(snap->graph, u, v); });
  return chk::checked_add(
      local, shard::ScatterGather::edge_support_cross(view, owner, u, v));
}

template <typename T>
std::optional<QueryResult<T>> ButterflyService::stale_view(
    const shard::ShardView& view, QueryKind kind, std::int64_t a,
    std::int64_t b) {
  std::uint64_t sig = 0;
  std::uint64_t ver = 0;
  {
    const MutexLock lock(view_mu_);
    // Only the current generation's predecessor is known, and only a query
    // pinned to the current generation may fall back to it: for an older
    // pin it would be an answer newer than the pin.
    if (view.signature != cur_sig_ || prev_sig_ == cur_sig_)
      return std::nullopt;
    sig = prev_sig_;
    ver = prev_version_;
  }
  const auto hit = cache_.get(CacheKey{sig, kind, a, b, view_tier()});
  if (!hit) return std::nullopt;
  return QueryResult<T>{std::get<T>(*hit), ver, Fidelity::kStale};
}

std::optional<QueryResult<count_t>> ButterflyService::degraded_tip(
    const shard::ShardViewPtr& view, vidx_t vertex, bool v1_side, int owner) {
  const QueryKind kind =
      v1_side ? QueryKind::kVertexTipV1 : QueryKind::kVertexTipV2;
  // Rung 1: the previous view generation's composed answer (kept on
  // publish precisely for this).
  if (auto stale = stale_view<count_t>(*view, kind, vertex, 0)) {
    note_stale(owner);
    obs::FlightRecorder::record("degrade", "stale_view",
                                static_cast<std::int64_t>(view->version),
                                vertex);
    return stale;
  }
  // Rung 2: a retained tip pass on every shard the answer reads, plus a
  // cross aggregate at hand. Without ANY cross aggregate the passes alone
  // would silently drop the correction — fall through to the estimator
  // instead of answering provably low. The answer is the view's with each
  // shard rolled back to its pass's epoch, and carries that view's version.
  if (const auto agg = scatter_.at_hand(*view)) {
    count_t value = v1_side ? (*agg)->tip_v1(vertex) : (*agg)->tip_v2(vertex);
    std::uint64_t version = view->version;
    const auto [lo, hi] = tip_shards(*view, owner);
    int s = lo;
    for (; s < hi; ++s) {
      const std::uint64_t epoch =
          view->shards[static_cast<std::size_t>(s)]->epoch;
      const auto pass = stale_tips(s, epoch + 1, v1_side);
      if (!pass) break;
      value = chk::checked_add(
          value, (*pass->second)[static_cast<std::size_t>(vertex)]);
      version -= epoch - pass->first;
    }
    if (s == hi) {
      note_stale(owner);
      obs::FlightRecorder::record(
          "degrade", "stale_tips", static_cast<std::int64_t>(version), vertex);
      return QueryResult<count_t>{value, version, Fidelity::kStale};
    }
  }
  // Rung 3: sampled estimate on the shard graph(s) — O(samples · deg)
  // regardless of graph size — plus the freshest completed cross
  // contribution when one exists (local-only and biased low otherwise —
  // still an answer, and tagged kApprox either way).
  count::ApproxOptions opt;
  count_t value = 0;
  if (v1_side) {
    opt.samples = approx_samples_;
    opt.seed = 0x5eedULL ^ (view->signature * 0x9e3779b97f4a7c15ULL) ^
               static_cast<std::uint64_t>(vertex);
    const count::ApproxResult est = count::approx_tip_v1(
        view->shards[static_cast<std::size_t>(owner)]->graph, vertex, opt);
    value = std::max<count_t>(0, std::llround(est.estimate));
  } else {
    // Split the sampling budget across the shards; each estimator sees only
    // local butterflies, so the per-shard estimates sum.
    opt.samples = std::max<std::int64_t>(
        1, approx_samples_ / static_cast<std::int64_t>(view->shard_count()));
    for (int s = 0; s < view->shard_count(); ++s) {
      opt.seed = 0x5eedULL ^ (view->signature * 0x9e3779b97f4a7c15ULL) ^
                 static_cast<std::uint64_t>(vertex) ^
                 (static_cast<std::uint64_t>(s) << 48);
      const count::ApproxResult est = count::approx_tip_v2(
          view->shards[static_cast<std::size_t>(s)]->graph, vertex, opt);
      value = chk::checked_add(
          value, std::max<count_t>(0, std::llround(est.estimate)));
    }
  }
  if (auto agg = scatter_.latest_ready())
    value = chk::checked_add(
        value, v1_side ? (*agg)->tip_v1(vertex) : (*agg)->tip_v2(vertex));
  BFC_COUNT_ADD("svc.degraded", 1);
  BFC_COUNT_ADD("svc.approx_fallbacks", 1);
  note_degraded(owner);
  obs::FlightRecorder::record("degrade", "approx",
                              static_cast<std::int64_t>(view->version),
                              vertex);
  return QueryResult<count_t>{value, view->version, Fidelity::kApprox};
}

// ---- shared plumbing -------------------------------------------------------

std::optional<std::pair<std::uint64_t, ButterflyService::TipVector>>
ButterflyService::stale_tips(int shard, std::uint64_t before_epoch,
                             bool v1_side) {
  std::shared_future<TipVector> best;
  std::uint64_t best_epoch = 0;
  {
    const MutexLock lock(memo_mu_);
    for (const auto& [key, pass] : tip_memo_) {
      if (std::get<0>(key) != shard || std::get<2>(key) != v1_side ||
          std::get<1>(key) >= before_epoch)
        continue;
      if (pass.result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready)
        continue;  // a degraded answer must not block on an in-flight pass
      if (!best.valid() || std::get<1>(key) > best_epoch) {
        best = pass.result;
        best_epoch = std::get<1>(key);
      }
    }
  }
  if (!best.valid()) return std::nullopt;
  try {
    return std::make_pair(best_epoch, best.get());
  } catch (...) {
    return std::nullopt;  // that pass failed; not a usable stale tier
  }
}

bool ButterflyService::overloaded() const {
  if (degrade_queue_depth_ != 0 && pool_.queue_depth() >= degrade_queue_depth_)
    return true;
  if (degrade_p95_us_ > 0.0 && latency_p95_us() > degrade_p95_us_)
    return true;
  // SLO-driven degradation: burning error budget faster than the objective
  // allows means exact answers now cost answers later — degrade first.
  return slo_.budget_exhausted();
}

bool ButterflyService::overloaded(int shard) const {
  if (overloaded()) return true;
  if (shard < 0 || shard >= static_cast<int>(shard_slo_.size())) return false;
  return shard_slo_[static_cast<std::size_t>(shard)]->budget_exhausted();
}

void ButterflyService::observe_latency(QueryKind kind, double us, int shard) {
  // The histogram hooks bind literal names: one call site per kind.
  switch (kind) {
    case QueryKind::kGlobalCount:
      BFC_HIST_OBSERVE("svc.latency_us.global", us);
      break;
    case QueryKind::kVertexTipV1:
      BFC_HIST_OBSERVE("svc.latency_us.tip_v1", us);
      break;
    case QueryKind::kVertexTipV2:
      BFC_HIST_OBSERVE("svc.latency_us.tip_v2", us);
      break;
    case QueryKind::kEdgeSupport:
      BFC_HIST_OBSERVE("svc.latency_us.edge", us);
      break;
    case QueryKind::kTopPairs:
      BFC_HIST_OBSERVE("svc.latency_us.top_pairs", us);
      break;
  }
  slo_.observe(kind, us);
  if (shard >= 0 && shard < static_cast<int>(shard_slo_.size()))
    shard_slo_[static_cast<std::size_t>(shard)]->observe(kind, us);
  const MutexLock lock(lat_mu_);
  lat_ring_[lat_next_] = us;
  lat_next_ = (lat_next_ + 1) % lat_ring_.size();
  if (lat_count_ < lat_ring_.size()) ++lat_count_;
}

void ButterflyService::note_degraded(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shard_degraded_.size())) return;
  obs::Counter* c = shard_degraded_[static_cast<std::size_t>(shard)];
  if (c != nullptr) c->increment();
}

void ButterflyService::note_stale(int shard) {
  BFC_COUNT_ADD("svc.degraded", 1);
  BFC_COUNT_ADD("svc.stale_answers", 1);
  note_degraded(shard);
}

void ButterflyService::note_scatter(QueryKind kind,
                                    const shard::ShardView& view) {
  if (shard::ShardRouter::scatters(kind) && view.shard_count() > 1)
    BFC_COUNT_ADD("svc.scatter_queries", 1);
}

void ButterflyService::note_stale_mask(std::uint64_t mask) {
  BFC_COUNT_ADD("svc.degraded", 1);
  BFC_COUNT_ADD("svc.stale_answers", 1);
  for (int k = 0; k < shards_ && k < 64; ++k)
    if (((mask >> k) & 1u) != 0) note_degraded(k);
}

void ButterflyService::publish_shard_gauge(int shard) {
  if (shard < 0 || shard >= static_cast<int>(shard_hit_gauges_.size()))
    return;
  obs::Gauge* g = shard_hit_gauges_[static_cast<std::size_t>(shard)];
  if (g != nullptr) g->set(cache_.hit_rate(shard));
}

double ButterflyService::latency_p95_us() const {
  std::array<double, kLatencyWindow> window;  // NOLINT(*-member-init)
  std::size_t n = 0;
  {
    const MutexLock lock(lat_mu_);
    n = lat_count_;
    std::copy_n(lat_ring_.begin(), n, window.begin());
  }
  if (n == 0) return 0.0;
  std::size_t idx = (n * 95) / 100;
  if (idx >= n) idx = n - 1;
  const auto nth = window.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(window.begin(), nth,
                   window.begin() + static_cast<std::ptrdiff_t>(n));
  BFC_GAUGE_SET("svc.latency_p95_us", *nth);
  return *nth;
}

ButterflyService::TipVector ButterflyService::tips_for(
    int shard, const SnapshotPtr& snap, bool v1_side,
    const CancelToken& cancel, const obs::TraceContext& trace) {
  const TipKey key{shard, snap->epoch, v1_side};
  std::promise<TipVector> mine;
  std::shared_future<TipVector> pass;
  bool compute = false;
  std::uint64_t my_pass = 0;
  {
    const MutexLock lock(memo_mu_);
    const auto it = tip_memo_.find(key);
    if (it == tip_memo_.end()) {
      pass = mine.get_future().share();
      my_pass = ++next_tip_pass_;
      tip_memo_.emplace(key, TipPass{pass, false, my_pass});
      compute = true;
    } else {
      pass = it->second.result;
      BFC_COUNT_ADD("svc.coalesced_queries", 1);
      if (!it->second.has_joiner) {
        it->second.has_joiner = true;
        BFC_COUNT_ADD("svc.coalesced_batches", 1);
      }
    }
  }
  if (compute) {
    BFC_TRACE_SCOPE(v1_side ? "svc.tip_pass_v1" : "svc.tip_pass_v2");
    BFC_COUNT_ADD("svc.tip_passes", 1);
    // The kernel span belongs to the request that computes; every coalesced
    // waiter's own query span references the same pass only through timing.
    obs::Span kernel_span(
        trace, v1_side ? "svc.kernel.tip_v1" : "svc.kernel.tip_v2");
    kernel_span.tag("epoch", snap->epoch);
    kernel_span.tag("shard", static_cast<std::uint64_t>(shard));
    try {
      // Checked builds can inject latency here to force deadline expiry
      // mid-pass (fault::Point::kSlowKernel, param = milliseconds).
      if (fault::fires(fault::Point::kSlowKernel))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(fault::param(fault::Point::kSlowKernel)));
      auto tips = std::make_shared<const std::vector<count_t>>(
          v1_side ? count::butterflies_per_v1(snap->graph, cancel)
                  : count::butterflies_per_v2(snap->graph, cancel));
      kernel_span.tag("outcome", "ok");
      mine.set_value(std::move(tips));
    } catch (const CancelledError&) {
      // A cancelled kernel still closes its span — tagged, not dropped —
      // so the trace tree shows where the deadline landed.
      kernel_span.tag("cancelled", "true");
      kernel_span.tag("outcome", "cancelled");
      kernel_span.close();
      drop_tip_pass(key, my_pass);
      mine.set_exception(std::current_exception());
    } catch (...) {
      // Drop the memo so a later query can retry, then propagate to every
      // request already coalesced onto this pass (each degrades on its own).
      kernel_span.tag("outcome", "error");
      drop_tip_pass(key, my_pass);
      mine.set_exception(std::current_exception());
    }
  }
  return pass.get();
}

void ButterflyService::drop_tip_pass(const TipKey& key, std::uint64_t pass_id) {
  // Erase only OUR memo entry. Between the kernel failing and this lock
  // acquisition a memo flush (publish retirement, restore, swap_shard) plus
  // a fresh query can have installed a NEW in-flight pass under the same
  // key; a blind erase would orphan that healthy pass and force a later
  // caller into a duplicate compute.
  const MutexLock lock(memo_mu_);
  const auto it = tip_memo_.find(key);
  if (it != tip_memo_.end() && it->second.pass_id == pass_id)
    tip_memo_.erase(it);
}

}  // namespace bfc::svc
