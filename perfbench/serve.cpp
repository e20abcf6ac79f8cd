// serve phase: svc::ButterflyService (Config::shards shards, in-process) on
// the arXiv stand-in, driven open-loop by one client thread while one
// writer publishes update batches on a fixed schedule.
//
// Reads follow the bench/serving mix (tip:6 split evenly over V1/V2,
// global:2, edge:1, top:1) with 30% of keys from a 16-vertex hot set, and
// arrive as a seeded Poisson stream. The client pins a snapshot (one store)
// or a shard view (sharded), calls the service, and collects the futures
// without blocking the schedule; each read is timed from its scheduled send
// time, so a stall also charges every read queued behind it. The writer
// cycles batch sizes 20/200/2000, 70% adds, one publish per period.
//
// The client pins under a shared lock that the writer holds exclusively
// while apply_updates runs, so a read always pins a whole batch. The
// sharded service publishes a batch shard by shard, and a read that pinned
// a partly published batch would start one more cross pass: how many of
// those a run did would depend on timing, not on the code (2.7 and 3.1
// per batch in two runs; one per batch since). Reads already in flight
// keep running during a publish; a read due during one waits, and its
// latency counts the wait.
//
// A warm-up segment is followed by one fixed-rate segment that every serve
// metric is taken from. Both end half-way between two publishes, so the
// fixed-rate segment always holds the same number of them. The gated costs
// are process CPU per read and the CPU time of a publish, both scaled by
// the host-speed reference that the writer samples after each publish.
// Read and publish latencies move with the host far more than any usable
// bound and are reported per layer, unscaled. Threads: the service pool,
// the client and the writer together use at most nproc.
#include <sys/resource.h>
#include <time.h>

#include <array>
#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <limits>
#include <shared_mutex>
#include <thread>

#include "count/baselines.hpp"
#include "count/local_counts.hpp"
#include "count/top_pairs.hpp"
#include "gen/konect_like.hpp"
#include "phases.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace svc = bfc::svc;
using bfc::count_t;
using bfc::vidx_t;

constexpr vidx_t kHotSet = 16;
constexpr std::size_t kTopK = 8;
constexpr std::array<int, 3> kBatchSizes = {20, 200, 2000};
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Params {
  double scale;             // arXiv stand-in scale
  double rate;              // fixed offered read rate, reads/s
  double publish_period_s;  // the writer's schedule
};

/// The writer's schedule is the same for both workloads. The sharded rate
/// is about half of what four shards sustain under that writer on a 4-vCPU
/// host (above ~300 reads/s the cross passes queue without bound); the
/// single store takes 2000 reads/s with room to spare.
Params params(const Config& cfg) {
  if (cfg.quick) return {0.05, 200.0, 0.05};
  if (cfg.shards == 1) return {1.0, 2000.0, 1.0};
  return {1.0, 150.0, 1.0};
}

enum class Kind : std::uint8_t { kTipV1, kTipV2, kGlobal, kEdge, kTop };

/// Metric key: tip_v1 and tip_v2 reads share "tip".
constexpr std::array<const char*, 4> kKindKeys = {"tip", "global", "edge",
                                                  "top"};
int kind_slot(Kind k) {
  switch (k) {
    case Kind::kTipV1:
    case Kind::kTipV2: return 0;
    case Kind::kGlobal: return 1;
    case Kind::kEdge: return 2;
    case Kind::kTop: return 3;
  }
  return 0;
}
const char* call_span(Kind k) {
  switch (k) {
    case Kind::kTipV1: return "svc.vertex_tip_v1";
    case Kind::kTipV2: return "svc.vertex_tip_v2";
    case Kind::kGlobal: return "svc.global_count";
    case Kind::kEdge: return "svc.edge_support";
    case Kind::kTop: return "svc.top_pairs";
  }
  return "svc.unknown";
}

/// The mix: tip:6 (3 V1 + 3 V2), global:2, edge:1, top:1.
Kind pick_kind(bfc::Rng& rng) {
  const auto roll = rng.bounded(10);
  if (roll < 3) return Kind::kTipV1;
  if (roll < 6) return Kind::kTipV2;
  if (roll < 8) return Kind::kGlobal;
  if (roll < 9) return Kind::kEdge;
  return Kind::kTop;
}

vidx_t pick_key(bfc::Rng& rng, vidx_t n) {
  const bool hot = rng.bernoulli(0.3);
  return static_cast<vidx_t>(
      rng.bounded(static_cast<std::uint64_t>(hot ? std::min(kHotSet, n) : n)));
}

/// Rows [lo, hi) of a view's shard snapshots, concatenated: the union graph
/// the view answers for.
bfc::graph::BipartiteGraph materialise(const bfc::shard::ShardView& view,
                                       const bfc::shard::RangePartition& part,
                                       vidx_t n1, vidx_t n2) {
  std::vector<std::pair<vidx_t, vidx_t>> edges;
  for (int k = 0; k < view.shard_count(); ++k) {
    const auto& g = view.shards[static_cast<std::size_t>(k)]->graph;
    for (vidx_t u = part.begin(k); u < part.end(k); ++u)
      for (const vidx_t v : g.neighbors_of_v1(u)) edges.emplace_back(u, v);
  }
  return bfc::graph::BipartiteGraph::from_edges(n1, n2, edges);
}

struct Pin {
  svc::SnapshotPtr snap;             // one store
  bfc::shard::ShardViewPtr view;     // sharded
  [[nodiscard]] std::uint64_t epoch() const {
    return snap ? snap->epoch : view->version;
  }
};

struct Pending {
  std::uint64_t req = 0;
  Kind kind = Kind::kGlobal;
  vidx_t a = 0, b = 0;
  Clock::time_point sched, pin_start, pin_end, call_start, call_end;
  std::future<svc::QueryResult<count_t>> scalar;
  std::future<svc::QueryResult<svc::TopPairsPtr>> pairs;
  int pin = -1;  // index of the kept pin this read is verified against

  [[nodiscard]] bool ready_by(Clock::time_point t) const {
    return pairs.valid()
               ? pairs.wait_until(t) == std::future_status::ready
               : scalar.wait_until(t) == std::future_status::ready;
  }
};

/// A read whose exact answer is checked after the run against oracles
/// recomputed on its pinned snapshot.
struct Checked {
  Kind kind;
  vidx_t a, b;
  int pin;
  count_t value;
  svc::TopPairsPtr pairs;
};

struct Segment {
  std::vector<double> lat_ms;  // every read; failed = +inf
  std::array<std::vector<double>, 4> kind_ms;
  std::vector<double> call_us, wait_us, pin_us, lateness_ms;
  std::vector<Clock::time_point> sent_at;  // scheduled send time of each read
  std::int64_t sent = 0, failed = 0, degraded = 0, tips = 0;
  std::size_t queue_depth_max = 0;
  Clock::time_point start, end;
};

class Client {
 public:
  Client(const Config& cfg, svc::ButterflyService& service,
         std::shared_mutex& batch_mu, vidx_t n1, vidx_t n2)
      : cfg_(cfg),
        service_(service),
        batch_mu_(batch_mu),
        n1_(n1),
        n2_(n2),
        key_rng_(cfg.seed * 0x9e3779b97f4a7c15ULL + 17) {}

  /// Offers `rate` reads/s for `seconds`, then waits for every answer.
  /// With verify_every > 0, keeps one pin per verify_every seconds and
  /// records the exact answers of reads made against it.
  Segment run(double rate, double seconds, int segment_index,
              double verify_every) {
    Segment seg;
    bfc::Rng arrivals(cfg_.seed * 1000003ULL +
                      static_cast<std::uint64_t>(segment_index));
    seg.start = Clock::now();
    seg.end = seg.start + to_duration(seconds);
    Clock::time_point t = seg.start;
    Clock::time_point last_kept = seg.start - to_duration(verify_every);
    for (;;) {
      t += to_duration(-std::log(1.0 - arrivals.uniform()) / rate);
      if (t >= seg.end) break;
      drain_until(t, seg);
      const Clock::time_point now = Clock::now();
      seg.lateness_ms.push_back(
          std::chrono::duration<double, std::milli>(now - t).count());
      seg.queue_depth_max =
          std::max(seg.queue_depth_max, service_.queue_depth());
      const bool keep = verify_every > 0 && now - last_kept >=
                                                to_duration(verify_every);
      if (keep) last_kept = now;
      send(t, keep, verify_every > 0, seg);
    }
    const Clock::time_point cap = Clock::now() + std::chrono::seconds(20);
    while (!out_.empty() && Clock::now() < cap)
      drain_until(Clock::now() + std::chrono::milliseconds(50), seg);
    for (Pending& p : out_) {  // never answered within the cap
      ++seg.failed;
      seg.lat_ms.push_back(kInf);
      orphans_.push_back(std::move(p));
    }
    out_.clear();
    return seg;
  }

  /// Waits for reads abandoned past the drain cap, so no task outlives the
  /// service's users.
  void wait_orphans() {
    for (Pending& p : orphans_) {
      if (p.pairs.valid()) p.pairs.wait();
      if (p.scalar.valid()) p.scalar.wait();
    }
    orphans_.clear();
  }

  std::vector<Pin> pins;
  std::vector<Checked> checked;

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  void send(Clock::time_point sched, bool keep_pin, bool verify,
            Segment& seg) {
    Pending p;
    p.req = next_req_++;
    p.sched = sched;
    p.kind = pick_kind(key_rng_);
    Pin pin;
    svc::Request req;
    {
      const std::shared_lock whole_batch(batch_mu_);
      p.pin_start = Clock::now();
      if (cfg_.shards == 1) {
        pin.snap = service_.snapshot();
        req = svc::Request(pin.snap);
      } else {
        pin.view = service_.view();
        req = svc::Request(pin.view);
      }
      p.pin_end = Clock::now();
    }
    if (p.kind == Kind::kEdge) {
      // A uniform present edge of the pinned graph (the owner shard's
      // snapshot for a view); falls back to a global read on an empty graph.
      const svc::SnapshotPtr& g =
          pin.snap ? pin.snap
                   : pin.view->shards[static_cast<std::size_t>(
                         service_.shard_store().partition().owner(
                             pick_key(key_rng_, n1_)))];
      const auto& csr = g->graph.csr();
      if (csr.nnz() == 0) {
        p.kind = Kind::kGlobal;
      } else {
        const auto k = static_cast<std::size_t>(
            key_rng_.bounded(static_cast<std::uint64_t>(csr.nnz())));
        const auto& ptr = csr.row_ptr();
        const auto row = std::upper_bound(ptr.begin(), ptr.end(),
                                          static_cast<bfc::offset_t>(k)) -
                         ptr.begin() - 1;
        p.a = static_cast<vidx_t>(row);
        p.b = csr.col_idx()[k];
      }
    }
    p.call_start = Clock::now();
    switch (p.kind) {
      case Kind::kTipV1:
        p.a = pick_key(key_rng_, n1_);
        p.scalar = service_.vertex_tip_v1(p.a, std::move(req));
        ++seg.tips;
        break;
      case Kind::kTipV2:
        p.a = pick_key(key_rng_, n2_);
        p.scalar = service_.vertex_tip_v2(p.a, std::move(req));
        ++seg.tips;
        break;
      case Kind::kGlobal:
        p.scalar = service_.global_count(std::move(req));
        break;
      case Kind::kEdge:
        p.scalar = service_.edge_support(p.a, p.b, std::move(req));
        break;
      case Kind::kTop:
        p.pairs = service_.top_pairs(kTopK, std::move(req));
        break;
    }
    p.call_end = Clock::now();
    ++seg.sent;
    seg.sent_at.push_back(sched);
    if (verify) {
      if (keep_pin && (pins.empty() || pins.back().epoch() != pin.epoch()))
        pins.push_back(pin);
      if (!pins.empty() && pins.back().epoch() == pin.epoch())
        p.pin = static_cast<int>(pins.size()) - 1;
    }
    out_.push_back(std::move(p));
  }

  void complete(Pending& p, Segment& seg) {
    const Clock::time_point done = Clock::now();
    bool failed = false, degraded = false;
    count_t value = 0;
    svc::TopPairsPtr pairs;
    try {
      if (p.pairs.valid()) {
        const auto r = p.pairs.get();
        degraded = r.degraded();
        pairs = r.value;
      } else {
        const auto r = p.scalar.get();
        degraded = r.degraded();
        value = r.value;
      }
    } catch (const std::exception&) {
      failed = true;  // shed, refused or failed: no answer at any fidelity
    }
    using ms = std::chrono::duration<double, std::milli>;
    using us = std::chrono::duration<double, std::micro>;
    const double lat = failed ? kInf : ms(done - p.sched).count();
    seg.lat_ms.push_back(lat);
    seg.kind_ms[static_cast<std::size_t>(kind_slot(p.kind))].push_back(lat);
    seg.pin_us.push_back(us(p.pin_end - p.pin_start).count());
    seg.call_us.push_back(us(p.call_end - p.call_start).count());
    seg.wait_us.push_back(us(done - p.call_end).count());
    if (failed) ++seg.failed;
    if (degraded) ++seg.degraded;
    if (p.pin >= 0 && !failed && !degraded)
      checked.push_back({p.kind, p.a, p.b, p.pin, value, pairs});
    if (Spans::enabled()) {
      const std::uint64_t root = Spans::next_id();
      Spans::record({"load.read", root, 0, p.req, Spans::to_ns(p.sched),
                     Spans::to_ns(done), 0});
      Spans::record({cfg_.shards == 1 ? "svc.snapshot" : "shard.view",
                     Spans::next_id(), root, p.req, Spans::to_ns(p.pin_start),
                     Spans::to_ns(p.pin_end), 0});
      Spans::record({call_span(p.kind), Spans::next_id(), root, p.req,
                     Spans::to_ns(p.call_start), Spans::to_ns(p.call_end), 0});
      Spans::record({"svc.future_wait", Spans::next_id(), root, p.req,
                     Spans::to_ns(p.call_end), Spans::to_ns(done), 0});
    }
  }

  /// Completes answered reads until `t`; the oldest read is waited on, the
  /// next few are polled so out-of-order answers are timed promptly.
  void drain_until(Clock::time_point t, Segment& seg) {
    while (!out_.empty()) {
      if (!out_.front().ready_by(t)) return;
      complete(out_.front(), seg);
      out_.pop_front();
      std::size_t polled = 0;
      for (auto it = out_.begin(); it != out_.end() && polled < 32;
           ++polled) {
        if (it->ready_by(Clock::time_point{})) {
          complete(*it, seg);
          it = out_.erase(it);
        } else {
          ++it;
        }
      }
    }
    std::this_thread::sleep_until(t);
  }

  const Config& cfg_;
  svc::ButterflyService& service_;
  std::shared_mutex& batch_mu_;
  vidx_t n1_, n2_;
  bfc::Rng key_rng_;
  std::uint64_t next_req_ = 1;
  std::deque<Pending> out_;
  std::vector<Pending> orphans_;
};

/// One publish and the period it starts: the process CPU time at its
/// start, and the reference samples the writer took after it. Costs are
/// CPU times, and so are the samples: on a busy host, wall times also
/// count the time a thread waited for a CPU, which differs between the
/// writer and the serving threads.
struct Publish {
  Clock::time_point start;
  int batch = 0;
  double ms = 0.0;          // apply_updates latency
  double cpu_ms = 0.0;      // apply_updates CPU time (it runs on the writer)
  double cpu_s = 0.0;       // process CPU time when the publish started
  std::vector<double> ref_cpu_ms;  // CPU time of each sample
  double ref_cpu_s = 0.0;  // their total CPU time, not a serving cost
};

/// User plus system CPU time of every thread of the process.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Per-tier cache hit/miss totals, accumulated from the generation-scoped
/// ResultCache counters (a tier's counts reset when its epoch retires).
struct TierTally {
  std::vector<std::int64_t> hits, misses, last_h, last_m;

  void sample(const svc::ResultCache& cache) {
    const auto n = static_cast<std::size_t>(cache.tiers());
    hits.resize(n);
    misses.resize(n);
    last_h.resize(n);
    last_m.resize(n);
    for (std::size_t t = 0; t < n; ++t) {
      const std::int64_t h = cache.hits(static_cast<int>(t));
      const std::int64_t m = cache.misses(static_cast<int>(t));
      hits[t] += h >= last_h[t] ? h - last_h[t] : h;
      misses[t] += m >= last_m[t] ? m - last_m[t] : m;
      last_h[t] = h;
      last_m[t] = m;
    }
  }
  [[nodiscard]] double ratio(std::size_t lo, std::size_t hi) const {
    std::int64_t h = 0, m = 0;
    for (std::size_t t = lo; t < hi && t < hits.size(); ++t) {
      h += hits[t];
      m += misses[t];
    }
    return h + m == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
  }
};

/// One writer: a batch per period from `t0` on, sizes cycling
/// 20/200/2000, 70% adds, each published under `batch_mu` held
/// exclusively. After each publish it takes three host-speed reference
/// samples.
class Writer {
 public:
  Writer(const Config& cfg, svc::ButterflyService& service,
         std::shared_mutex& batch_mu, Reference& ref, vidx_t n1, vidx_t n2,
         double period_s, Clock::time_point t0)
      : cfg_(cfg),
        service_(service),
        batch_mu_(batch_mu),
        ref_(ref),
        n1_(n1),
        n2_(n2),
        period_s_(period_s),
        t0_(t0),
        thread_([this] { run(); }) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] const std::vector<Publish>& log() const { return log_; }
  [[nodiscard]] const TierTally& tiers() const { return tiers_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void run() {
    try {
      bfc::Rng rng(cfg_.seed + 1);
      for (int i = 0; !stop_.load(std::memory_order_acquire); ++i) {
        const int size = kBatchSizes[static_cast<std::size_t>(i) % 3];
        std::vector<svc::EdgeUpdate> batch;
        batch.reserve(static_cast<std::size_t>(size));
        for (int j = 0; j < size; ++j)
          batch.push_back({static_cast<vidx_t>(rng.bounded(
                               static_cast<std::uint64_t>(n1_))),
                           static_cast<vidx_t>(rng.bounded(
                               static_cast<std::uint64_t>(n2_))),
                           rng.bernoulli(0.7)});
        std::this_thread::sleep_until(
            t0_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(period_s_ * i)));
        if (stop_.load(std::memory_order_acquire)) break;
        tiers_.sample(service_.cache());
        Publish pub;
        pub.start = Clock::now();
        pub.batch = size;
        pub.cpu_s = process_cpu_seconds();
        const double apply_cpu0 = thread_cpu_seconds();
        {
          const std::unique_lock whole_batch(batch_mu_);
          const ScopedSpan s("svc.apply_updates",
                             static_cast<std::uint64_t>(i) + 1);
          (void)service_.apply_updates(batch);
        }
        pub.cpu_ms = (thread_cpu_seconds() - apply_cpu0) * 1e3;
        pub.ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           pub.start)
                     .count();
        {
          const ScopedSpan r("bench.reference");
          for (int k = 0; k < 3; ++k) {
            const double cpu0 = thread_cpu_seconds();
            (void)ref_.sample_ms();
            const double cpu = thread_cpu_seconds() - cpu0;
            pub.ref_cpu_ms.push_back(cpu * 1e3);
            pub.ref_cpu_s += cpu;
          }
        }
        log_.push_back(pub);
      }
      tiers_.sample(service_.cache());
    } catch (const std::exception& e) {
      error_ = e.what();  // reported by run_serve as a failed gate
    }
  }

  const Config& cfg_;
  svc::ButterflyService& service_;
  std::shared_mutex& batch_mu_;
  Reference& ref_;
  vidx_t n1_, n2_;
  double period_s_;
  Clock::time_point t0_;
  std::atomic<bool> stop_{false};
  std::vector<Publish> log_;
  TierTally tiers_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses
};

std::int64_t counter(const std::string& name) {
  return CounterProbe(name).value();
}

/// Checks every recorded exact answer against oracles recomputed on the
/// snapshot (or materialised view) the read was pinned to.
void verify_reads(const svc::ButterflyService& service,
                  const Client& client, vidx_t n1, vidx_t n2, Gates& gates) {
  for (std::size_t i = 0; i < client.pins.size(); ++i) {
    const Pin& pin = client.pins[i];
    const bfc::graph::BipartiteGraph g =
        pin.snap ? pin.snap->graph
                 : materialise(*pin.view, service.shard_store().partition(),
                               n1, n2);
    std::vector<count_t> tip1, tip2, support;
    std::vector<bfc::count::VertexPair> top;
    count_t xi = -1;
    for (const Checked& c : client.checked) {
      if (c.pin != static_cast<int>(i)) continue;
      const std::string what = std::string(call_span(c.kind)) + " at epoch " +
                               std::to_string(pin.epoch());
      switch (c.kind) {
        case Kind::kTipV1:
          if (tip1.empty()) tip1 = bfc::count::butterflies_per_v1(g);
          gates.check(c.value == tip1[static_cast<std::size_t>(c.a)], what);
          break;
        case Kind::kTipV2:
          if (tip2.empty()) tip2 = bfc::count::butterflies_per_v2(g);
          gates.check(c.value == tip2[static_cast<std::size_t>(c.a)], what);
          break;
        case Kind::kGlobal:
          if (xi < 0) xi = bfc::count::wedge_reference(g);
          gates.check(c.value == xi, what);
          break;
        case Kind::kEdge: {
          if (support.empty()) support = bfc::count::support_per_edge(g);
          const auto row = g.neighbors_of_v1(c.a);
          const auto it = std::lower_bound(row.begin(), row.end(), c.b);
          const count_t expect =
              it != row.end() && *it == c.b
                  ? support[static_cast<std::size_t>(
                        g.csr().row_ptr()[static_cast<std::size_t>(c.a)] +
                        (it - row.begin()))]
                  : 0;
          gates.check(c.value == expect, what);
          break;
        }
        case Kind::kTop:
          if (top.empty()) top = bfc::count::top_wedge_pairs_v1(g, kTopK);
          gates.check(c.pairs != nullptr && *c.pairs == top, what);
          break;
      }
    }
  }
}

}  // namespace

ServeInputs make_serve_inputs(const Config& cfg) {
  const Params pm = params(cfg);
  ServeInputs in;
  {
    const ScopedSpan s("gen.make_konect_like");
    in.initial = bfc::gen::make_konect_like(
        bfc::gen::konect_preset("arXiv cond-mat"), pm.scale, cfg.seed);
  }
  svc::ServiceOptions opts;
  opts.threads = std::max(1, cfg.nproc - 2);  // + client + writer <= nproc
  opts.shards = cfg.shards;
  in.service = std::make_unique<svc::ButterflyService>(
      in.initial.n1(), in.initial.n2(), opts);
  std::vector<svc::EdgeUpdate> load;
  load.reserve(static_cast<std::size_t>(in.initial.edge_count()));
  for (vidx_t u = 0; u < in.initial.n1(); ++u)
    for (const vidx_t v : in.initial.neighbors_of_v1(u))
      load.push_back(svc::EdgeUpdate::add(u, v));
  const ScopedSpan s("svc.apply_updates");
  (void)in.service->apply_updates(load);
  return in;
}

PhaseResult run_serve(const Config& cfg, ServeInputs& in, Reference& ref,
                      double budget_s, Gates& gates) {
  const Params pm = params(cfg);
  svc::ButterflyService& service = *in.service;
  const vidx_t n1 = in.initial.n1(), n2 = in.initial.n2();
  PhaseResult r;
  // Two and a half publish periods warm the caches and memos up; the rest
  // of the budget, in whole periods, runs at the fixed rate. Publishes fall
  // on whole periods from t0, so both segments end between two of them.
  const double period = pm.publish_period_s;
  const double warm_s = 2.5 * period;
  const double fixed_s =
      period * std::max(1.0, std::floor((budget_s - warm_s) / period));

  const std::vector<std::string> deltas = {
      "svc.cache_hits",     "svc.cache_misses",    "svc.coalesced_queries",
      "svc.tip_passes",     "svc.shed",            "svc.rejected",
      "svc.scatter_queries", "svc.cross_passes",   "svc.gather_merges"};
  std::vector<std::string> publish_counters;
  for (int k = 0; k < cfg.shards; ++k)
    publish_counters.push_back("svc.shard." + std::to_string(k) +
                               ".publishes");
  std::map<std::string, std::int64_t> before, after;
  const auto read_counters = [&](std::map<std::string, std::int64_t>& out) {
    for (const std::string& n : deltas) out[n] = counter(n);
    out["shard.publishes"] = 0;
    for (const std::string& n : publish_counters)
      out["shard.publishes"] += counter(n);
  };

  std::shared_mutex batch_mu;
  Client client(cfg, service, batch_mu, n1, n2);
  Writer writer(cfg, service, batch_mu, ref, n1, n2, period, Clock::now());
  (void)client.run(pm.rate, warm_s, 0, 0.0);
  read_counters(before);
  Segment fixed = client.run(pm.rate, fixed_s, 1, fixed_s / 12.0);
  read_counters(after);
  writer.stop();
  client.wait_orphans();

  // End to end, over the publish periods (one publish's start to the
  // next's) inside the fixed-rate segment. CPU times are scaled by the
  // median CPU time of every reference sample in those periods (see
  // reference.hpp); the samples' own CPU time is not part of the serving
  // cost.
  std::vector<Publish> pubs;
  for (const Publish& p : writer.log())
    if (p.start >= fixed.start && p.start < fixed.end) pubs.push_back(p);
  gates.check(pubs.size() >= 2,
              "fewer than two publishes during the fixed-rate segment");
  double cpu = 0.0;
  std::vector<double> ref_cpu_ms;
  for (std::size_t i = 0; i + 1 < pubs.size(); ++i) {
    cpu += pubs[i + 1].cpu_s - pubs[i].cpu_s - pubs[i].ref_cpu_s;
    ref_cpu_ms.insert(ref_cpu_ms.end(), pubs[i].ref_cpu_ms.begin(),
                      pubs[i].ref_cpu_ms.end());
  }
  const double speed = Reference::kNominalMs / median(ref_cpu_ms);
  std::int64_t reads = 0;
  if (pubs.size() >= 2)
    for (const Clock::time_point t : fixed.sent_at)
      reads += t >= pubs.front().start && t < pubs.back().start ? 1 : 0;
  r.layer["host.serve_ref_cpu_ms"] = {median(ref_cpu_ms), "ms"};
  r.e2e["read_cpu_us"] = {
      cpu * 1e6 * speed /
          static_cast<double>(std::max<std::int64_t>(1, reads)),
      "us"};
  r.layer["read_p50_ms"] = {percentile(fixed.lat_ms, 50.0), "ms"};
  r.layer["read_p99_ms"] = {percentile(fixed.lat_ms, 99.0), "ms"};
  std::vector<double> publish_ms, publish_cpu_ms;
  std::map<int, std::vector<double>> by_size;
  for (const Publish& p : pubs) {
    publish_ms.push_back(p.ms);
    publish_cpu_ms.push_back(p.cpu_ms * speed);
    by_size[p.batch].push_back(p.cpu_ms * 1e3 * speed);
  }
  gates.check(writer.error().empty(),
              "apply_updates threw: " + writer.error());
  r.e2e["publish_cpu_ms"] = {median(publish_cpu_ms), "ms"};
  r.layer["publish_p50_ms"] = {median(publish_ms), "ms"};

  // Per layer, over the fixed-rate segment.
  for (std::size_t k = 0; k < kKindKeys.size(); ++k) {
    const std::string key = std::string("svc.") + kKindKeys[k];
    r.layer[key + "_p50_ms"] = {percentile(fixed.kind_ms[k], 50.0), "ms"};
    r.layer[key + "_p99_ms"] = {percentile(fixed.kind_ms[k], 99.0), "ms"};
  }
  r.layer["svc.call_us_p50"] = {percentile(fixed.call_us, 50.0), "us"};
  r.layer["svc.wait_us_p50"] = {percentile(fixed.wait_us, 50.0), "us"};
  r.layer["svc.wait_us_p99"] = {percentile(fixed.wait_us, 99.0), "us"};
  for (const int b : kBatchSizes)
    r.layer["svc.publish_us.b" + std::to_string(b)] = {median(by_size[b]),
                                                       "us"};
  const auto delta = [&](const std::string& n) {
    return static_cast<double>(after[n] - before[n]);
  };
  const double hits = delta("svc.cache_hits"),
               misses = delta("svc.cache_misses");
  const auto answered = static_cast<double>(fixed.sent - fixed.failed);
  if constexpr (kCountersPresent) {
    r.layer["svc.cache_hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    r.layer["svc.coalesce_ratio"] = {
        fixed.tips > 0
            ? delta("svc.coalesced_queries") / static_cast<double>(fixed.tips)
            : 0.0,
        "ratio"};
    r.layer["svc.tip_passes"] = {delta("svc.tip_passes"), "count"};
    r.layer["svc.shed_rejected"] = {delta("svc.shed") + delta("svc.rejected"),
                                    "count"};
    r.layer["svc.scatter_queries"] = {delta("svc.scatter_queries"), "count"};
    r.layer["svc.cross_passes"] = {delta("svc.cross_passes"), "count"};
    r.layer["svc.gather_merges"] = {delta("svc.gather_merges"), "count"};
    r.layer["svc.cross_pairs"] = {
        bfc::obs::Registry::instance().gauge("svc.cross_pairs").value(),
        "count"};
    r.layer["shard.publishes"] = {delta("shard.publishes"), "count"};
  }
  r.layer["svc.queue_depth_max"] = {
      static_cast<double>(fixed.queue_depth_max), "count"};
  r.layer["svc.degraded_frac"] = {
      answered > 0 ? static_cast<double>(fixed.degraded) / answered : 0.0,
      "frac"};
  r.layer["load.lateness_p99_ms"] = {percentile(fixed.lateness_ms, 99.0),
                                     "ms"};
  r.layer["load.failed_frac"] = {
      fixed.sent > 0 ? static_cast<double>(fixed.failed) /
                           static_cast<double>(fixed.sent)
                     : 0.0,
      "frac"};
  r.layer["load.reads"] = {static_cast<double>(fixed.sent), "count"};
  r.layer["load.offered_qps"] = {pm.rate, "1/s"};
  r.layer["shard.view_pin_us_p50"] = {percentile(fixed.pin_us, 50.0), "us"};
  const TierTally& tiers = writer.tiers();
  const auto shards = static_cast<std::size_t>(cfg.shards);
  r.layer["shard.tier_hit_ratio"] = {
      cfg.shards > 1 ? tiers.ratio(0, shards) : 0.0, "ratio"};
  r.layer["shard.view_tier_hit_ratio"] = {
      cfg.shards > 1 ? tiers.ratio(shards, shards + 1) : 0.0, "ratio"};

  // Correctness: every failed read counts; every kept exact answer
  // matches its oracle; the final epoch's count matches a recount.
  gates.attempted += fixed.sent;
  gates.failed += fixed.failed;
  verify_reads(service, client, n1, n2, gates);
  gates.check(!client.checked.empty(), "no serve read was verified");
  const svc::SnapshotPtr last = service.snapshot();
  count_t recount = bfc::count::wedge_reference(last->graph);
  if (cfg.corrupt == "serve") ++recount;
  gates.check(last->butterflies == recount,
              "final-epoch count != recount of the final snapshot");
  r.layer["svc.verified_reads"] = {static_cast<double>(client.checked.size()),
                                   "count"};
  return r;
}

}  // namespace perfbench
