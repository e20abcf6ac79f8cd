#include "shard/sharded_store.hpp"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "util/crc32.hpp"

namespace bfc::shard {
namespace {

// Manifest envelope for multi-shard checkpoints: the per-shard files are
// ordinary BFCSNP01 LocalShard checkpoints (each individually CRC'd and
// recount-verified on restore); the manifest only binds the set together —
// how many shards, over which dimensions.
constexpr std::array<char, 8> kManifestMagic = {'B', 'F', 'C', 'S',
                                                'H', 'D', '0', '1'};

struct ManifestMeta {
  std::int32_t shards;
  vidx_t n1;
  vidx_t n2;
};
static_assert(sizeof(ManifestMeta) == 12, "manifest meta must pack to 12B");

std::string shard_file(const std::string& path, int k) {
  return path + ".shard" + std::to_string(k);
}

/// Reads and checks the BFCSHD01 manifest at `path` against the store's
/// layout: `shards` over n1 x n2.
void read_manifest(const std::string& path, int shards, vidx_t n1,
                   vidx_t n2) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open shard manifest: " + path);
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (static_cast<std::size_t>(in.gcount()) != magic.size() ||
      std::memcmp(magic.data(), kManifestMagic.data(),
                  kManifestMagic.size()) != 0)
    throw std::runtime_error("shard manifest " + path + ": bad magic");
  std::uint32_t crc = 0;
  in.read(reinterpret_cast<char*>(&crc), sizeof crc);
  ManifestMeta meta{};
  in.read(reinterpret_cast<char*>(&meta), sizeof meta);
  if (!in) throw std::runtime_error("shard manifest " + path + ": truncated");
  if (crc32(&meta, sizeof meta) != crc)
    throw std::runtime_error("shard manifest " + path + ": meta CRC mismatch");
  if (meta.shards != shards || meta.n1 != n1 || meta.n2 != n2)
    throw std::runtime_error(
        "shard manifest " + path + ": layout mismatch (file has " +
        std::to_string(meta.shards) + " shards over " +
        std::to_string(meta.n1) + "x" + std::to_string(meta.n2) +
        ", store has " + std::to_string(shards) + " over " +
        std::to_string(n1) + "x" + std::to_string(n2) + ")");
}

}  // namespace

ShardedSnapshotStore::ShardedSnapshotStore(vidx_t n1, vidx_t n2, int shards)
    : part_(n1, shards), n1_(n1), n2_(n2) {
  require(n2 >= 0, "ShardedSnapshotStore: n2 must be >= 0");
  // ShardView::stale_mask (and QueryResult::stale_shards) is a 64-bit
  // per-shard bitmap; a shard beyond bit 63 could fail without ever being
  // taggable, silently serving stale data as kExact. Refuse the layout.
  require(shards <= 64,
          "ShardedSnapshotStore: at most 64 shards (stale_mask is 64-bit)");
  auto map = std::make_shared<ShardMap>();
  map->shards.reserve(static_cast<std::size_t>(shards));
  for (int k = 0; k < shards; ++k)
    map->shards.push_back(
        std::make_shared<LocalShard>(k, n1, n2, part_.begin(k), part_.end(k)));
  map_.store_release(std::move(map));
}

svc::PublishResult ShardedSnapshotStore::apply_to_shard(
    int k, std::span<const svc::EdgeUpdate> batch) {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  // No store-wide lock: the shard serialises its own publishes, and writers
  // on different shards proceed fully in parallel.
  return map_.load_acquire()->shards[static_cast<std::size_t>(k)]->apply(
      batch);
}

ShardViewPtr ShardedSnapshotStore::view() const {
  const ShardMapPtr map = map_.load_acquire();
  std::vector<svc::SnapshotPtr> pinned;
  pinned.reserve(map->shards.size());
  std::uint64_t stale_mask = 0;
  for (std::size_t k = 0; k < map->shards.size(); ++k) {
    const ShardHandlePtr& h = map->shards[k];
    pinned.push_back(h->pin());
    // healthy() AFTER pin(): a RemoteShard discovers a dead host during
    // the pin, so probing first would blame a healthy snapshot on a shard
    // that only just failed (or miss a failure by one view).
    // k < 64 always holds (constructor refuses wider layouts), so every
    // unhealthy shard is representable in the mask.
    if (!h->healthy()) stale_mask |= std::uint64_t{1} << k;
  }
  return ShardView::of(std::move(pinned), stale_mask);
}

svc::SnapshotPtr ShardedSnapshotStore::shard_snapshot(int k) const {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  return map_.load_acquire()->shards[static_cast<std::size_t>(k)]->pin();
}

std::uint64_t ShardedSnapshotStore::epoch() const {
  const ShardMapPtr map = map_.load_acquire();
  std::uint64_t m = 0;
  for (const ShardHandlePtr& h : map->shards) m = std::max(m, h->epoch());
  return m;
}

ShardHandlePtr ShardedSnapshotStore::shard(int k) const {
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  return map_.load_acquire()->shards[static_cast<std::size_t>(k)];
}

void ShardedSnapshotStore::swap_shard(int k, ShardHandlePtr handle) {
  require(handle != nullptr, "ShardedSnapshotStore: null shard handle");
  require(0 <= k && k < shard_count(),
          "ShardedSnapshotStore: shard index out of range");
  require(handle->id() == k && handle->range_begin() == part_.begin(k) &&
              handle->range_end() == part_.end(k),
          "ShardedSnapshotStore: replacement shard id/range mismatch");
  const MutexLock lock(swap_mu_);
  auto next = std::make_shared<ShardMap>(*map_.load_acquire());
  next->shards[static_cast<std::size_t>(k)] = std::move(handle);
  map_.store_release(std::move(next));
}

void ShardedSnapshotStore::persist(const std::string& path) const {
  const ShardMapPtr map = map_.load_acquire();
  if (shard_count() == 1) {
    // Drop-in legacy format: a 1-shard store's checkpoint is exactly its
    // one shard's checkpoint.
    map->shards[0]->persist(path);
    return;
  }
  // Shard files first (each write-then-rename on its own), manifest last:
  // a crash mid-persist leaves either the old manifest (pointing at the
  // old, still-valid shard files it was written with — shard files are
  // only replaced atomically) or no new manifest at all.
  for (int k = 0; k < shard_count(); ++k)
    map->shards[static_cast<std::size_t>(k)]->persist(shard_file(path, k));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write shard manifest: " + tmp);
    out.write(kManifestMagic.data(), kManifestMagic.size());
    const ManifestMeta meta{shard_count(), n1(), n2()};
    const std::uint32_t crc = crc32(&meta, sizeof meta);
    out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    out.write(reinterpret_cast<const char*>(&meta), sizeof meta);
    out.flush();
    if (!out) throw std::runtime_error("write failed for manifest: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot publish shard manifest (rename " + tmp +
                             " -> " + path + " failed)");
  }
}

void ShardedSnapshotStore::restore(const std::string& path) {
  const int n = shard_count();
  // 1. The layout. N = 1: the single file's own dimensions, which win (a
  //    legacy file is free to change them), so that file is read here,
  //    once. N > 1: the manifest's, which must match this store's.
  std::optional<Checkpoint> single;
  vidx_t n1 = this->n1();
  vidx_t n2 = this->n2();
  if (n == 1) {
    single = read_checkpoint(path);
    n1 = single->snap->graph.n1();
    n2 = single->snap->graph.n2();
  } else {
    read_manifest(path, n, n1, n2);
  }

  // 2. Restore every shard into a fresh LocalShard built for that layout;
  //    each shard's file must match its (n1, n2). Nothing live changes
  //    until all N files validated, so a torn, corrupt or foreign shard
  //    file cannot leave the store half-restored.
  const RangePartition part(n1, n);
  auto next = std::make_shared<ShardMap>();
  next->shards.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    auto reborn =
        std::make_shared<LocalShard>(k, n1, n2, part.begin(k), part.end(k));
    if (single)
      reborn->restore(std::move(*single), path);
    else
      reborn->restore(shard_file(path, k));
    next->shards.push_back(std::move(reborn));
  }

  // 3. Swap the map once. The layout is rewritten only when it changed,
  //    which only an N = 1 restore can do (see the header's exclusivity
  //    contract).
  const MutexLock lock(swap_mu_);
  if (n1 != this->n1() || n2 != this->n2()) {
    part_ = part;
    n1_.store(n1, std::memory_order_relaxed);  // relaxed: see n1()
    n2_.store(n2, std::memory_order_relaxed);
  }
  map_.store_release(std::move(next));
}

}  // namespace bfc::shard
