// N >= 1 shards behind one store facade. The v1 side is range-partitioned
// (shard/partition.hpp); each shard is a ShardHandle — a LocalShard, the
// one snapshot store, or a RemoteShard in another process — publishing its
// own epoch sequence with no synchronisation against the other shards.
// That independence is the whole point: writers whose batches touch
// disjoint vertex ranges call apply_to_shard() concurrently and their
// publishes overlap in time. A single store is the N = 1 case.
//
// Readers pin a ShardView: one snapshot per shard plus a signature over
// the per-shard epochs. There is deliberately no cross-shard atomic cut —
// see view.hpp for the consistency contract. The view's version (Σ of the
// shard epochs) is the one "after this publish" scalar.
//
// Checkpointing follows the same fuzziness. With one shard, the checkpoint
// is that shard's BFCSNP01 file (so a 1-shard store is drop-in compatible
// with files written before sharding existed); with N > 1 shards, it is one
// BFCSNP01 file per shard plus a small CRC-checked BFCSHD01 manifest
// binding them together.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "shard/partition.hpp"
#include "shard/shard.hpp"
#include "shard/view.hpp"
#include "svc/snapshot.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::shard {

class ShardedSnapshotStore {
 public:
  /// Builds `shards` LocalShards over [0, n1), each starting at epoch 0.
  /// At most 64 shards: ShardView::stale_mask tags staleness per shard in
  /// a 64-bit bitmap, and an untaggable shard would degrade silently.
  ShardedSnapshotStore(vidx_t n1, vidx_t n2, int shards);

  // ---- writer side -------------------------------------------------------

  /// Applies a batch known to be wholly owned by shard k (the shard itself
  /// enforces ownership). This is the concurrent-writer entry point: no
  /// store-wide lock is taken, so callers on different shards publish in
  /// parallel.
  svc::PublishResult apply_to_shard(int k,
                                    std::span<const svc::EdgeUpdate> batch);
  svc::PublishResult apply_to_shard(int k,
                                    std::initializer_list<svc::EdgeUpdate> b) {
    return apply_to_shard(
        k, std::span<const svc::EdgeUpdate>(b.begin(), b.end()));
  }

  // ---- reader side -------------------------------------------------------

  /// Pins every shard's latest snapshot into one view. N atomic loads, no
  /// locks, never blocks any writer.
  [[nodiscard]] ShardViewPtr view() const;

  /// Pins one shard's latest snapshot.
  [[nodiscard]] svc::SnapshotPtr shard_snapshot(int k) const;

  /// Max per-shard epoch — NOT a global ordering across shards; a pinned
  /// view's version is.
  [[nodiscard]] std::uint64_t epoch() const;

  // ---- checkpointing ----------------------------------------------------

  void persist(const std::string& path) const;
  /// Warm-start from a checkpoint, in one path for every N: read the
  /// layout (the manifest's for N > 1, which must match this store's; the
  /// single file's own dimensions for N = 1, which win — a legacy file is
  /// free to change them), restore every shard into a fresh LocalShard
  /// built for that layout (each file must match its (n1, n2)), then swap
  /// the map once. Throws std::runtime_error on any bad file, leaving the
  /// store untouched. Demands writer exclusivity and, for N = 1, reader
  /// exclusivity of the LAYOUT accessors too: a new layout rebuilds part_
  /// and rewrites n1_/n2_, and a concurrent partition()/ShardRouter user
  /// would race on the rebuild. n1()/n2() stay individually tear-free, but
  /// readers needing dimensions coherent with a graph take them from a
  /// pinned view, never from here across a restore.
  void restore(const std::string& path);

  // ---- layout ------------------------------------------------------------

  [[nodiscard]] int shard_count() const noexcept { return part_.shards(); }
  /// The live partition, lock-free. Must not be called concurrently with a
  /// restore() that changes the layout — see restore().
  [[nodiscard]] const RangePartition& partition() const noexcept {
    return part_;
  }
  [[nodiscard]] vidx_t n1() const noexcept {
    // relaxed: an independent scalar, rewritten only by restore() (see
    // there); nothing is ordered against it.
    return n1_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] vidx_t n2() const noexcept {
    return n2_.load(std::memory_order_relaxed);  // see n1()
  }

  /// The shard handle in slot k (never null).
  [[nodiscard]] ShardHandlePtr shard(int k) const;

  /// Replaces slot k with another implementation of the same range — the
  /// seam a future PR uses to move one shard out of process. The handle's
  /// id and owned range must match the slot.
  void swap_shard(int k, ShardHandlePtr handle);

 private:
  struct ShardMap {
    std::vector<ShardHandlePtr> shards;
  };
  using ShardMapPtr = std::shared_ptr<const ShardMap>;

  // Rebuilt only by a restore() that changes the layout, which the
  // contract makes fully exclusive — see restore().
  RangePartition part_;
  std::atomic<vidx_t> n1_;
  std::atomic<vidx_t> n2_;
  mutable Mutex swap_mu_{"shard.store.swap"};  // restore/swap_shard
  PublishedPtr<const ShardMap> map_{"shard.store.map"};
};

}  // namespace bfc::shard
