#include "shard/shard.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "chk/validate.hpp"
#include "graph/io_binary.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "sparse/ops.hpp"
#include "svc/fault.hpp"
#include "util/crc32.hpp"

namespace bfc::shard {
namespace {

// Snapshot-file envelope around the BFC2 graph blob: magic, version, then
// a CRC-checked epoch/count/edges trailer the graph format knows nothing
// about. The embedded graph sections carry their own per-section CRCs.
constexpr std::array<char, 8> kSnapMagic = {'B', 'F', 'C', 'S',
                                            'N', 'P', '0', '1'};

struct SnapMeta {
  std::uint64_t epoch;
  count_t butterflies;
  offset_t edges;
};
static_assert(sizeof(SnapMeta) == 24, "snapshot meta must pack to 24 bytes");

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in, const std::string& path, const char* what) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (static_cast<std::size_t>(in.gcount()) != sizeof value)
    throw std::runtime_error("snapshot " + path + ": truncated " + what);
  return value;
}

[[noreturn, gnu::cold, gnu::noinline]] void throw_misrouted(
    const char* who, vidx_t u, vidx_t lo, vidx_t hi, int id) {
  throw std::invalid_argument(
      std::string(who) + ": update routed to the wrong shard (u=" +
      std::to_string(u) + " outside [" + std::to_string(lo) + ", " +
      std::to_string(hi) + ") of shard " + std::to_string(id) + ")");
}

}  // namespace

void require_routed(std::span<const svc::EdgeUpdate> batch, const char* who,
                    vidx_t lo, vidx_t hi, int id) {
  for (const svc::EdgeUpdate& up : batch)
    if (!(lo <= up.u && up.u < hi)) [[unlikely]]
      throw_misrouted(who, up.u, lo, hi, id);
}

Checkpoint read_checkpoint(const std::string& path) {
  const obs::Span phase("svc.restore");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open snapshot: " + path);

  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (static_cast<std::size_t>(in.gcount()) != magic.size() ||
      std::memcmp(magic.data(), kSnapMagic.data(), kSnapMagic.size()) != 0)
    throw std::runtime_error("snapshot " + path + ": bad magic");
  const auto version = read_pod<std::uint32_t>(in, path, "version");
  if (version != graph::kBinaryFormatVersion)
    throw std::runtime_error("snapshot " + path +
                             ": unsupported format version " +
                             std::to_string(version));
  const auto meta_crc = read_pod<std::uint32_t>(in, path, "meta CRC");
  const auto meta = read_pod<SnapMeta>(in, path, "meta section");
  if (crc32(&meta, sizeof meta) != meta_crc)
    throw std::runtime_error("snapshot " + path + ": meta CRC mismatch");

  // The graph blob carries its own per-section CRCs; read_binary reports
  // the path and byte offset on any truncation or mismatch.
  graph::BipartiteGraph g = graph::read_binary(in, path);
  if (g.edge_count() != meta.edges)
    throw std::runtime_error(
        "snapshot " + path + ": edge count mismatch (meta says " +
        std::to_string(meta.edges) + ", graph has " +
        std::to_string(g.edge_count()) + ")");

  // Rebuild the incremental counter from the persisted edges. The rebuild
  // recomputes the butterfly count from scratch, so a file whose sections
  // all pass CRC but disagree with the recorded count is still rejected —
  // the count in RAM after restore is never taken on faith.
  count::DynamicButterflyCounter counter(g.n1(), g.n2());
  for (const auto& [u, v] : sparse::edges(g.csr())) counter.insert(u, v);
  if (counter.butterflies() != meta.butterflies)
    throw std::runtime_error(
        "snapshot " + path + ": butterfly count mismatch (meta says " +
        std::to_string(meta.butterflies) + ", recount gives " +
        std::to_string(counter.butterflies()) + ")");

  auto snap = std::make_shared<svc::GraphSnapshot>();
  snap->epoch = meta.epoch;
  snap->graph = std::move(g);
  snap->butterflies = meta.butterflies;
  snap->edges = meta.edges;
  if constexpr (chk::kCheckedEnabled) {
    chk::validate(counter);
    chk::validate(*snap);
  }
  return {std::move(snap), std::move(counter)};
}

LocalShard::LocalShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi)
    : id_(id), n1_(n1), n2_(n2), lo_(lo), hi_(hi), counter_(n1, n2) {
  require(id >= 0, "LocalShard: id must be >= 0");
  require(0 <= lo && lo <= hi && hi <= n1,
          "LocalShard: owned range must satisfy 0 <= lo <= hi <= n1");
  if constexpr (obs::kMetricsEnabled) {
    // Bound once at construction so the per-shard family has a literal
    // "svc.shard." prefix (documented as a family in docs/telemetry.md)
    // and the publish hot path pays one pointer indirection, not a
    // registry lookup.
    publishes_ = &obs::Registry::instance().counter(
        "svc.shard." + std::to_string(id) + ".publishes");
  }
  auto genesis = std::make_shared<svc::GraphSnapshot>();
  genesis->epoch = 0;
  genesis->graph = counter_.to_graph();
  genesis->butterflies = 0;
  genesis->edges = 0;
  head_.store_release(std::move(genesis));
}

svc::PublishResult LocalShard::apply(std::span<const svc::EdgeUpdate> batch) {
  require_routed(batch, "LocalShard", lo_, hi_, id_);
  // Every publish roots its own trace (no head sampling: publishes are
  // writer-side and rare, and the sharded bench's concurrency self-check
  // needs to see every one).
  obs::Span pub_span("svc.shard.publish");
  const MutexLock lock(writer_mu_);

  svc::PublishResult result;
  for (const svc::EdgeUpdate& up : batch) {
    if (up.insert) {
      const bool present = counter_.has_edge(up.u, up.v);
      result.created += counter_.insert(up.u, up.v);
      present ? ++result.ignored : ++result.applied;
    } else {
      const bool present = counter_.has_edge(up.u, up.v);
      result.destroyed += counter_.remove(up.u, up.v);
      present ? ++result.applied : ++result.ignored;
    }
  }

  auto snap = std::make_shared<svc::GraphSnapshot>();
  snap->epoch = next_epoch_++;
  snap->graph = counter_.to_graph();
  snap->butterflies = counter_.butterflies();
  snap->edges = counter_.edge_count();
  result.epoch = snap->epoch;

  // Checked build: the batch just mutated the counter, so re-verify its
  // internal structure, the snapshot it materialised (including a recount
  // of the incremental butterfly total), and the epoch transition before
  // any reader can pin the new head.
  if constexpr (chk::kCheckedEnabled) {
    chk::validate(counter_);
    chk::validate(*snap);
    chk::validate_epoch_transition(*head_.load_acquire(), *snap);
  }

  head_.store_release(std::move(snap));
  if (pub_span.armed()) {
    pub_span.tag("shard", static_cast<std::uint64_t>(id_));
    pub_span.tag("epoch", result.epoch);
  }
  BFC_COUNT_ADD("svc.epochs_published", 1);
  BFC_COUNT_ADD("svc.updates_applied", result.applied);
  if (publishes_ != nullptr) publishes_->increment();
  return result;
}

void LocalShard::persist(const std::string& path) const {
  const obs::Span phase("svc.persist");
  // Pin once: everything below reads the immutable snapshot, so the writer
  // keeps publishing and readers keep answering while we serialise.
  const svc::SnapshotPtr snap = head_.load_acquire();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write snapshot: " + tmp);
    out.write(kSnapMagic.data(), kSnapMagic.size());
    write_pod(out, graph::kBinaryFormatVersion);
    const SnapMeta meta{snap->epoch, snap->butterflies, snap->edges};
    write_pod(out, crc32(&meta, sizeof meta));
    write_pod(out, meta);
    graph::write_binary(out, snap->graph);
    out.flush();
    if (!out) throw std::runtime_error("write failed for snapshot: " + tmp);
  }

  // Fault injection (checked builds): manufacture the crash modes the
  // restore path must reject or survive.
  if (svc::fault::fires(svc::fault::Point::kPersistTruncate)) {
    const auto full = std::filesystem::file_size(tmp);
    const std::uint64_t keep =
        svc::fault::param(svc::fault::Point::kPersistTruncate);
    std::filesystem::resize_file(tmp, keep != 0 ? keep : full / 2);
  }
  if (svc::fault::fires(svc::fault::Point::kPersistCorrupt)) {
    std::fstream f(tmp, std::ios::binary | std::ios::in | std::ios::out);
    const auto size =
        static_cast<std::uint64_t>(std::filesystem::file_size(tmp));
    const std::uint64_t at =
        svc::fault::param(svc::fault::Point::kPersistCorrupt) %
        (size != 0 ? size : 1);
    f.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&byte, 1);
  }
  if (svc::fault::fires(svc::fault::Point::kPersistNoRename)) {
    // Simulated crash between flush and rename: the tmp file is torn off
    // mid-publish and the previously persisted snapshot stays authoritative.
    return;
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish snapshot (rename " + tmp +
                             " -> " + path + " failed)");
  }
  BFC_COUNT_ADD("svc.snapshots_persisted", 1);
  BFC_GAUGE_SET("svc.persisted_epoch", snap->epoch);
}

void LocalShard::restore(const std::string& path) {
  restore(read_checkpoint(path), path);
}

void LocalShard::restore(Checkpoint checkpoint, const std::string& path) {
  // The file passed every check of its own; what only the shard can know
  // is its layout and ownership. A checkpoint of other dimensions, or one
  // written by a different shard or partition, would splice in a graph
  // this shard does not hold.
  const graph::BipartiteGraph& g = checkpoint.snap->graph;
  if (g.n1() != n1_ || g.n2() != n2_)
    throw std::runtime_error(
        "snapshot " + path + ": layout mismatch (file is " +
        std::to_string(g.n1()) + "x" + std::to_string(g.n2()) + ", shard " +
        std::to_string(id_) + " is " + std::to_string(n1_) + "x" +
        std::to_string(n2_) + ")");
  // Unconditional (not BFC_VALIDATE-gated): O(n1) over row_ptr is nothing
  // next to the counter rebuild read_checkpoint just did.
  chk::validate_shard_range(g, lo_, hi_);

  // All validation passed — only now touch the shard's state.
  const MutexLock lock(writer_mu_);
  counter_ = std::move(checkpoint.counter);
  next_epoch_ = checkpoint.snap->epoch + 1;
  head_.store_release(std::move(checkpoint.snap));
  BFC_COUNT_ADD("svc.snapshots_restored", 1);
}

}  // namespace bfc::shard
