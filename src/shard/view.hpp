// A pinned cross-shard read view: one immutable snapshot per shard, taken
// with one atomic load each. Shards publish independently, so a view is NOT
// an atomic cut across shards — each per-shard snapshot is individually
// consistent, and the view as a whole is "some recent epoch of every
// shard". That is the same consistency a single-store reader gets across
// two successive pins; queries that need a frozen multi-shard state pin one
// view and answer everything against it.
//
// The signature is an order-sensitive hash of the per-shard epochs: two
// views with equal signatures answer every query identically, which is what
// lets the service key its composed-answer cache tier and the scatter-gather
// planner key its cross-aggregate memo by signature instead of by any
// single epoch. A single store is the one-shard case: its view's signature
// and version are both the shard's epoch, so a composed answer keys exactly
// like the shard's own.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chk/checked_math.hpp"
#include "svc/snapshot.hpp"
#include "util/common.hpp"

namespace bfc::shard {

struct ShardView {
  std::vector<svc::SnapshotPtr> shards;  // index = shard id, never null
  // Σ of the pinned per-shard epochs: every shard publish moves it by one,
  // and a one-shard view carries its shard's epoch.
  std::uint64_t version = 0;
  std::uint64_t signature = 0;  // see signature_of
  // Bit k set: shard k was unhealthy at pin time (open circuit on a
  // RemoteShard), so shards[k] is its last *known* snapshot rather than a
  // fresh pin. Values composed from this view are still exact for the
  // pinned epoch combination — the mask is a freshness annotation the
  // service surfaces as QueryResult::stale_shards, never a validity bit.
  std::uint64_t stale_mask = 0;

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards.size());
  }

  [[nodiscard]] bool shard_stale(int k) const noexcept {
    return k < 64 && ((stale_mask >> k) & 1u) != 0;
  }

  /// Σ over shards of the shard-local butterfly count: butterflies whose
  /// V1 pair lives inside one shard. The cross-shard correction term comes
  /// from shard::ScatterGather.
  [[nodiscard]] count_t local_butterflies() const {
    count_t total = 0;
    for (const svc::SnapshotPtr& s : shards)
      total = chk::checked_add(total, s->butterflies);
    return total;
  }

  [[nodiscard]] offset_t edges() const {
    offset_t total = 0;
    for (const svc::SnapshotPtr& s : shards)
      total = chk::checked_add(total, s->edges);
    return total;
  }

  [[nodiscard]] std::uint64_t max_epoch() const noexcept {
    std::uint64_t m = 0;
    for (const svc::SnapshotPtr& s : shards)
      if (s->epoch > m) m = s->epoch;
    return m;
  }

  /// The view of `shards` as pinned, with version and signature derived
  /// from their epochs.
  [[nodiscard]] static std::shared_ptr<const ShardView> of(
      std::vector<svc::SnapshotPtr> shards, std::uint64_t stale_mask = 0) {
    auto v = std::make_shared<ShardView>();
    v->shards = std::move(shards);
    for (const svc::SnapshotPtr& s : v->shards) v->version += s->epoch;
    v->signature = signature_of(v->shards);
    v->stale_mask = stale_mask;
    return v;
  }

  /// splitmix64 chain over the per-shard epochs (order-sensitive); one
  /// shard's epoch is its own signature.
  [[nodiscard]] static std::uint64_t signature_of(
      const std::vector<svc::SnapshotPtr>& shards) noexcept {
    if (shards.size() == 1) return shards.front()->epoch;
    auto mix = [](std::uint64_t x) noexcept {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    std::uint64_t h = mix(shards.size());
    for (const svc::SnapshotPtr& s : shards) h = mix(h ^ s->epoch);
    return h;
  }
};

using ShardViewPtr = std::shared_ptr<const ShardView>;

}  // namespace bfc::shard
