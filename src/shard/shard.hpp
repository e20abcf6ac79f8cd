// The narrow shard boundary. A ShardHandle is everything the sharded store
// and the scatter-gather planner are allowed to know about one shard: apply
// a batch, pin a snapshot, read the epoch, checkpoint. The interface is
// deliberately value-in / value-out (spans of updates, shared_ptr
// snapshots, scalar epochs) with no shared mutable state across it, so a
// RemoteShard implements it with a process boundary behind the calls
// without touching any caller.
//
// LocalShard is the in-process implementation and the one snapshot store:
// a single writer applies edge batches through a DynamicButterflyCounter
// (the authoritative mutable state) and publishes each result as an
// immutable GraphSnapshot that readers pin with one atomic load — readers
// never block the writer and the writer never blocks readers. The shard
// spans the FULL (n1, n2) vertex sets but owns only the V1 interval
// [lo, hi). Keeping full dimensions means a shard snapshot is an ordinary
// BipartiteGraph — every existing kernel (tip passes, edge support,
// top-pairs) runs on it unmodified, with the rows outside the owned range
// simply empty. A single store is the one shard that owns [0, n1).
//
// Crash safety: persist() writes the latest published epoch (epoch number,
// exact count, and the checksummed BFC2 graph blob, in the BFCSNP01
// envelope) with write-then-rename, and restore() warm-starts from that
// file — rebuilding the incremental counter from the persisted edges and
// cross-checking its recount against the persisted total, so a
// corrupted-but-CRC-colliding file still cannot smuggle in a wrong count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "count/dynamic.hpp"
#include "svc/snapshot.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::obs {
class Counter;
}

namespace bfc::shard {

class ShardHandle {
 public:
  virtual ~ShardHandle() = default;

  /// Applies one batch and publishes the shard's next epoch. Every update's
  /// V1 endpoint must be owned by this shard; routing is the caller's job
  /// (ShardedSnapshotStore / ShardRouter).
  virtual svc::PublishResult apply(std::span<const svc::EdgeUpdate> batch) = 0;

  /// Pins the shard's latest published snapshot (full-dimension graph,
  /// non-owned V1 rows empty). One atomic load; never blocks the writer.
  [[nodiscard]] virtual svc::SnapshotPtr pin() const = 0;

  /// Epoch of the shard's latest published snapshot.
  [[nodiscard]] virtual std::uint64_t epoch() const = 0;

  /// Crash-safe checkpoint of the shard's latest epoch (write-then-rename).
  virtual void persist(const std::string& path) const = 0;

  /// Warm restart from a checkpoint written by persist(); throws
  /// std::runtime_error on a corrupt file, leaving the shard unchanged.
  virtual void restore(const std::string& path) = 0;

  [[nodiscard]] virtual int id() const noexcept = 0;
  /// Owned V1 interval [range_begin(), range_end()).
  [[nodiscard]] virtual vidx_t range_begin() const noexcept = 0;
  [[nodiscard]] virtual vidx_t range_end() const noexcept = 0;

  /// Whether the shard can currently serve fresh answers. In-process shards
  /// are always healthy; a RemoteShard reports false while its circuit
  /// breaker is open (host crashed / unreachable), in which case pin()
  /// still returns the last known snapshot so views stay total — the
  /// sharded store folds this bit into ShardView::stale_mask and the
  /// service downgrades fidelity instead of failing the query.
  [[nodiscard]] virtual bool healthy() const noexcept { return true; }
};

using ShardHandlePtr = std::shared_ptr<ShardHandle>;

/// Ownership check shared by the ShardHandle::apply implementations: throws
/// std::invalid_argument("<who>: update routed to the wrong shard (u=<u>
/// outside [<lo>, <hi>) of shard <id>)") for the first update whose V1
/// endpoint lies outside [lo, hi). A routed batch costs one comparison per
/// update; the message is formatted only for the offending update.
void require_routed(std::span<const svc::EdgeUpdate> batch, const char* who,
                    vidx_t lo, vidx_t hi, int id);

/// A checkpoint file read back and checked on its own terms: magic, format
/// version, CRCs, and a recount of the persisted butterfly total by the
/// incremental counter rebuilt from its edges. Whether it fits a shard's
/// layout and owned range is LocalShard::restore's check.
struct Checkpoint {
  svc::SnapshotPtr snap;
  count::DynamicButterflyCounter counter;
};

/// Reads and checks a checkpoint written by LocalShard::persist. Throws
/// std::runtime_error naming `path` on a missing, truncated or corrupted
/// file.
[[nodiscard]] Checkpoint read_checkpoint(const std::string& path);

/// In-process shard: the snapshot store, plus ownership checks and a
/// construction-bound svc.shard.<id>.publishes counter. Every publish roots
/// its own "svc.shard.publish" span tagged with the shard id, which is how
/// the serving bench proves that disjoint-range shard publishes overlap in
/// time instead of serialising.
class LocalShard final : public ShardHandle {
 public:
  /// Starts at epoch 0: the empty graph over (n1, n2), owning V1 rows
  /// [lo, hi).
  LocalShard(int id, vidx_t n1, vidx_t n2, vidx_t lo, vidx_t hi);

  /// Applies the batch through the incremental counter, materialises the
  /// resulting graph and publishes it as epoch current+1. Updates apply in
  /// order; duplicate inserts and absent removes count as ignored.
  /// Serialised internally, so concurrent callers are safe — but the design
  /// intent is a single writer thread.
  svc::PublishResult apply(std::span<const svc::EdgeUpdate> batch) override;
  [[nodiscard]] svc::SnapshotPtr pin() const override {
    return head_.load_acquire();
  }
  [[nodiscard]] std::uint64_t epoch() const override { return pin()->epoch; }
  /// Never blocks readers or the writer: it serialises a pinned snapshot.
  void persist(const std::string& path) const override;
  /// Replaces the whole state (graph, counter, epoch sequence) with the
  /// checkpoint's, so the next apply publishes persisted_epoch + 1. Throws
  /// std::runtime_error, leaving the shard unchanged, on a corrupt file or
  /// one whose dimensions differ from this shard's; a file with edges
  /// outside the owned range fails the ownership check.
  void restore(const std::string& path) override;
  /// The same, from a checkpoint already read from `path`.
  void restore(Checkpoint checkpoint, const std::string& path);

  [[nodiscard]] int id() const noexcept override { return id_; }
  [[nodiscard]] vidx_t range_begin() const noexcept override { return lo_; }
  [[nodiscard]] vidx_t range_end() const noexcept override { return hi_; }

 private:
  const int id_;
  const vidx_t n1_;
  const vidx_t n2_;
  const vidx_t lo_;
  const vidx_t hi_;
  obs::Counter* publishes_ = nullptr;  // svc.shard.<id>.publishes
  mutable Mutex writer_mu_{"svc.store.writer"};  // apply/restore
  std::uint64_t next_epoch_ BFC_GUARDED_BY(writer_mu_) = 1;
  count::DynamicButterflyCounter counter_ BFC_GUARDED_BY(writer_mu_);
  PublishedPtr<const svc::GraphSnapshot> head_{"svc.store.head"};
};

}  // namespace bfc::shard
