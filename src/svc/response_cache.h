// Sharded LRU cache for serialized query proofs, keyed by
// (op, account, window, tip height). Proof generation dominates the serving
// cost of repeated queries, so the SP caches the proof bytes and assembles
// each reply around them (the tip part depends on what the client holds);
// when a new certified block arrives every cached proof refers to a stale
// tip, so the server invalidates the cache wholesale (keys embed the tip
// height, making stale hits impossible even without the flush — the flush
// just returns the memory). Shards keep lock contention bounded under
// concurrent clients.
//
// The cache is bounded by bytes, not entries: each entry is charged its
// payload's allocation (capacity, not size) plus a fixed per-entry
// bookkeeping cost, each shard gets an equal share of the byte budget and
// LRU-evicts until it is back under its share, and an entry larger than a
// share is never cached. Memory therefore stays flat however fast clients
// fill the cache between announcements, and however small the entries are.
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
  /// Bytes currently charged against the budget (exact; mirrored by the
  /// `svc.cache.bytes` gauge).
  std::uint64_t bytes = 0;

  double HitRate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class ResponseCache {
  using Entry = std::pair<Hash256, Bytes>;
  static constexpr std::size_t kAllocHeader = 2 * sizeof(void*);

 public:
  /// What one entry costs besides its payload: the LRU list node (two links
  /// and the entry), the index map node (link, cached hash, key, list
  /// iterator) and its bucket slot, and an allocator header for each of the
  /// three heap blocks (list node, map node, payload).
  static constexpr std::size_t kEntryOverheadBytes =
      (2 * sizeof(void*) + sizeof(Entry)) +
      (3 * sizeof(void*) + sizeof(Hash256)) + sizeof(void*) +
      3 * kAllocHeader;

  /// At most `capacity_bytes` in total, split evenly across `shards`; each
  /// entry is charged its payload's capacity plus kEntryOverheadBytes, and
  /// each shard LRU-evicts down to its share.
  ResponseCache(std::size_t shards, std::size_t capacity_bytes);

  /// Cache key for a query against a given certified tip.
  static Hash256 Key(Op op, std::uint64_t account, std::uint64_t from_height,
                     std::uint64_t to_height, std::uint64_t tip_height);

  /// Returns the cached payload and promotes it to most-recently-used.
  std::optional<Bytes> Lookup(const Hash256& key);
  /// Caches `payload` as most-recently-used, evicting older entries of its
  /// shard until the shard fits its share; an entry charged more than the
  /// share is dropped, and a key already cached keeps its payload (same
  /// query, same tip: same bytes).
  void Insert(const Hash256& key, Bytes payload);
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
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<Hash256, std::list<Entry>::iterator, Hash256Hasher>
        map;
    std::size_t bytes = 0;  // sum of the entries' charges
  };

  Shard& ShardFor(const Hash256& key);
  /// What `payload` is charged against its shard's share.
  static std::size_t Charge(const Bytes& payload) {
    return payload.capacity() + kEntryOverheadBytes;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_budget_;  // bytes each shard may be charged
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
