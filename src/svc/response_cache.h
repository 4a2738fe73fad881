// Sharded LRU cache for encoded query replies, keyed by
// (op, account, window, tip height). Proof generation dominates the serving
// cost of repeated queries, so the SP caches whole reply frames; when a new
// certified block arrives every cached proof refers to a stale tip, so the
// server invalidates the cache wholesale (keys embed the tip height, making
// stale hits impossible even without the flush — the flush just returns the
// memory). Shards keep lock contention bounded under concurrent clients.
//
// The cache is bounded by reply bytes, not entries: each shard gets an equal
// share of the byte budget and LRU-evicts until it is back under its share,
// and a reply larger than a share is never cached. Memory therefore stays
// flat however fast clients fill the cache between announcements.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "obs/metrics.h"
#include "svc/protocol.h"

namespace dcert::svc {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // whole-cache flushes
  /// Flushes a shard-assigned server skipped because the announced block
  /// wrote nothing this shard owns (keys embed the tip height, so stale
  /// hits are impossible either way — the flush only returns memory).
  std::uint64_t invalidations_skipped = 0;
  /// Reply bytes currently held (exact; mirrored by the `svc.cache.bytes`
  /// gauge).
  std::uint64_t bytes = 0;

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ResponseCache {
 public:
  /// At most `capacity_bytes` of reply bytes in total, split evenly across
  /// `shards`; each shard LRU-evicts down to its share.
  ResponseCache(std::size_t shards, std::size_t capacity_bytes);

  /// Cache key for a query against a given certified tip.
  static Hash256 Key(Op op, std::uint64_t account, std::uint64_t from_height,
                     std::uint64_t to_height, std::uint64_t tip_height);

  /// Returns the cached reply frame and promotes it to most-recently-used.
  std::optional<Bytes> Lookup(const Hash256& key);
  /// Caches `reply` as most-recently-used, evicting older entries of its
  /// shard until the shard fits its share; a reply larger than the share is
  /// dropped, and a key already cached keeps its reply (same query, same
  /// tip: same bytes).
  void Insert(const Hash256& key, Bytes reply);
  /// Drops every entry (a new certified block arrived); bytes return to 0.
  void InvalidateAll();
  /// Records that a flush was deliberately not performed (shard-local
  /// invalidation decided the announcement was out-of-shard).
  void NoteInvalidationSkipped();

  /// Thin view over this instance's registry-backed counters (`svc.cache.*`
  /// in the metrics registry; exact for this cache instance).
  CacheStats Stats() const;

 private:
  struct Shard {
    std::mutex mu;
    std::list<std::pair<Hash256, Bytes>> lru;  // front = most recent
    std::unordered_map<Hash256, std::list<std::pair<Hash256, Bytes>>::iterator,
                       Hash256Hasher>
        map;
    std::size_t bytes = 0;  // sum of the cached reply sizes
  };

  Shard& ShardFor(const Hash256& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_budget_;  // reply bytes each shard may hold
  // Instance-owned sharded counters, also registered in the global metrics
  // registry (latest cache instance wins the `svc.cache.*` names there).
  std::shared_ptr<obs::Counter> hits_;
  std::shared_ptr<obs::Counter> misses_;
  std::shared_ptr<obs::Counter> evictions_;
  std::shared_ptr<obs::Counter> invalidations_;
  std::shared_ptr<obs::Counter> invalidations_skipped_;
  std::shared_ptr<obs::Gauge> bytes_;
};

}  // namespace dcert::svc
