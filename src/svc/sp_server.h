// Multi-threaded Query Service Provider (the paper's SP, Sec. 5) behind a
// Transport: framed requests — historical/aggregate queries, certified-block
// announcements, tip fetches — are admission-controlled and served on the
// transport thread that delivered them, which responds before returning. The
// server maintains its own live HistoricalIndex from announced blocks
// (validating the CI's block and index certificates exactly as a superlight
// client would, so a tampered announcement never enters the index), serves
// authenticated proofs under a reader/writer lock, and caches serialized
// proofs in a byte-bounded sharded LRU keyed by (query, tip height) that is
// flushed whenever a new certified block lands. The certified tip is encoded
// once when it changes; each query reply is assembled from those tip bytes
// (or only their key, when the client already holds the tip) and the proof.
//
// Admission control: at most `max_queue` requests may be admitted (waiting
// or executing) at once, beyond that kBusy is replied at once (load
// shedding); at most `workers` of them execute at once. Shutdown() first
// stops admitting (new requests shed), then waits for the admitted ones to
// finish (graceful drain), then stops the transport.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>

#include "chain/block_store.h"
#include "ckpt/checkpoint.h"
#include "dcert/cert_store.h"
#include "dcert/enclave_program.h"
#include "obs/metrics.h"
#include "query/historical_index.h"
#include "svc/protocol.h"
#include "svc/response_cache.h"
#include "svc/transport.h"

namespace dcert::svc {

struct SpServerConfig {
  /// At most this many admitted requests execute at once (0: one per core).
  std::size_t workers = 4;
  /// Admitted-request bound (waiting + executing); above it requests shed.
  std::size_t max_queue = 64;
  /// Reply cache: `cache_capacity_bytes` of serialized proofs in total, each
  /// charged its allocation plus per-entry bookkeeping, split evenly across
  /// `cache_shards` lock shards. Each shard LRU-evicts down to its share,
  /// and an entry larger than one share is not cached, so the cache never
  /// holds more than the budget however fast clients fill it between
  /// announcements.
  bool enable_cache = true;
  std::size_t cache_shards = 8;
  std::size_t cache_capacity_bytes = std::size_t{1} << 20;
  /// Enclave identity announcements must be certified by.
  Hash256 expected_measurement = core::ExpectedEnclaveMeasurement();
  /// Fleet shard assignment (map_version != 0 makes the server sharded):
  /// queries for keys or height windows outside it are rejected with
  /// kStaleShard (retryable — the client refreshes its map and re-routes),
  /// and reply-cache invalidation turns shard-local (announcements writing
  /// nothing this shard owns skip the flush).
  ShardAssignment shard;
  /// Serialized fleet::ShardMap served verbatim on Op::kShardMap; empty
  /// means this server cannot answer shard-map fetches.
  Bytes shard_map;
  /// Test hook: artificial per-request processing delay, to make admission
  /// control and drain observable in fast unit tests.
  std::uint64_t debug_process_delay_ms = 0;
};

/// A CI's durable stores, as DurableCertificateIssuer leaves them: the block
/// log and the certificate log beside it (one cert per non-genesis block).
struct StoredChain {
  const chain::BlockStore& blocks;
  const core::CertificateStore& certs;
};

struct SpServerStats {
  std::uint64_t served = 0;             // OK replies
  std::uint64_t shed = 0;               // kBusy replies from admission control
  std::uint64_t errors = 0;             // kError replies
  std::uint64_t blocks_applied = 0;     // announcements accepted into the index
  std::uint64_t announce_rejected = 0;  // announcements failing validation
  std::uint64_t shard_rejects = 0;      // kStaleShard replies (wrong shard/map)
  std::uint64_t tip_height = 0;
  CacheStats cache;
};

class SpServer {
 public:
  explicit SpServer(SpServerConfig config);
  ~SpServer();
  SpServer(const SpServer&) = delete;
  SpServer& operator=(const SpServer&) = delete;

  /// Registers this server's handler with `transport` and starts serving.
  /// The transport must outlive the server (or Shutdown must run first).
  Status Serve(ServerTransport& transport);

  /// Graceful shutdown: shed new requests, drain in-flight ones, stop the
  /// transport. Idempotent; also runs from the destructor.
  void Shutdown();

  /// In-process announcement path (setup rigs, benches). Same validation as
  /// announcements arriving over the wire.
  Status Announce(const AnnounceRequest& req);

  /// Bootstraps a FRESH server after a restart from a checkpoint, a CI's
  /// durable stores, or both (nullptr for the one not given). Fails without
  /// touching state when neither is given or the server has already applied
  /// blocks.
  ///
  /// Stores: every stored block certificate is validated (digest + envelope,
  /// pinned measurement) with the chain linkage, and the live
  /// HistoricalIndex is rebuilt by applying the stored blocks in order. The
  /// restored tip carries the stored block certificate; the index-certificate
  /// slot holds it too as a fail-safe placeholder (clients reject it as an
  /// index cert) until the next live announcement refreshes it — the durable
  /// stores hold block certs only, so certified index serving resumes then.
  ///
  /// Checkpoint: verifies it (certificate envelope, digest binding,
  /// index-cert binding) and restores the index from its content (the
  /// restored digest must reproduce the certified one) — O(1) in chain
  /// length; announcements resume at the next height. A carried index
  /// certificate (SP-written checkpoints have one) serves directly.
  ///
  /// Both: the checkpoint tip is cross-checked against the stored block at
  /// its height, then only the stored tail above it is replayed — cost
  /// follows the checkpoint delta, not chain length. A non-empty tail
  /// advances the index past the checkpoint's certified digest, so the
  /// fail-safe placeholder applies until the next live announcement.
  Status Restore(const ckpt::Checkpoint* ck, const StoredChain* stores);

  /// Snapshot of this server's serving state as an SP-flavor checkpoint:
  /// tip header + block certificate, index content + certified digest, and
  /// the tip's index certificate when it is a real one (fresh from an
  /// announcement, not a restore placeholder). No body/state — a query
  /// server holds neither. Fails before the first certified tip.
  Result<ckpt::Checkpoint> ExportCheckpoint() const;

  SpServerStats Stats() const;

 private:
  /// Transport-thread entry: admission, a permit, Process, then respond.
  void HandleFrame(Bytes request, Respond respond);
  /// Decode, serve, encode.
  Bytes Process(const Bytes& request);
  /// A plain or shard-scoped query frame: decode, ownership check, then the
  /// proof and the tip it was built at, read under one shared lock.
  Bytes ProcessQuery(const Bytes& frame);
  Bytes ProcessTipFetch();
  Bytes ProcessHealth();
  std::uint64_t UptimeMs() const;
  /// Map-version and shard-id checks, then the inner query.
  Bytes ProcessShardScoped(const ShardScopedRequest& req);
  /// kStaleShard reply helper (counts shard_rejects).
  Bytes RejectShard(const std::string& message);
  /// Applies announcements contiguously (out-of-order ones wait in
  /// pending_); caller must hold state_mu_ exclusively.
  Status AnnounceLocked(const AnnounceRequest& req);
  /// Installs `tip` as the certified tip and encodes it once for every reply
  /// that carries it; the only writer of tip_. Caller must hold state_mu_
  /// exclusively.
  void SetTipLocked(TipInfo tip);
  /// Chunk-batched certificate validation + index apply of stored blocks
  /// [from, blocks.Count()); caller must hold state_mu_ exclusively and
  /// have next_height_ == from with `prev_hdr` the header at from - 1.
  Status ReplayStoredLocked(const StoredChain& stores, std::uint64_t from,
                            chain::BlockHeader prev_hdr);
  /// Checkpoint verify + index restore + tip install; caller must hold
  /// state_mu_ exclusively on a fresh server.
  Status RestoreCheckpointLocked(const ckpt::Checkpoint& ck);

  SpServerConfig config_;
  /// Process start for the kHealth uptime field (per-server is the closest
  /// observable proxy; servers are constructed at process start in practice).
  std::chrono::steady_clock::time_point start_time_;
  ResponseCache cache_;
  ServerTransport* transport_ = nullptr;

  // Admission control.
  mutable std::mutex admit_mu_;
  std::condition_variable drain_cv_;
  std::condition_variable permit_cv_;
  std::size_t in_flight_ = 0;  // admitted: waiting for a permit or executing
  std::size_t executing_ = 0;  // holding one of config_.workers permits
  bool draining_ = false;

  // Serving state: the live index plus the certified tip it reflects.
  mutable std::shared_mutex state_mu_;
  query::HistoricalIndex index_;
  std::map<std::uint64_t, AnnounceRequest> pending_;  // by height
  std::optional<TipInfo> tip_;
  EncodedTip tip_wire_;  // EncodeTip(*tip_), set with it
  std::uint64_t next_height_ = 1;

  // Instance-owned registry-backed metrics (monotonic, read via Stats());
  // registered under `svc.server.*` / `svc.latency.*`, latest instance wins
  // the names on the live stats endpoint.
  std::shared_ptr<obs::Counter> served_;
  std::shared_ptr<obs::Counter> shed_;
  std::shared_ptr<obs::Counter> errors_;
  std::shared_ptr<obs::Counter> blocks_applied_;
  std::shared_ptr<obs::Counter> announce_rejected_;
  std::shared_ptr<obs::Counter> shard_rejects_;
  std::shared_ptr<obs::Gauge> inflight_gauge_;  // mirrors in_flight_
  std::shared_ptr<obs::Gauge> uptime_gauge_;    // refreshed on kStats/kHealth
  std::shared_ptr<obs::Histogram> lat_tip_ns_;
  std::shared_ptr<obs::Histogram> lat_historical_ns_;
  std::shared_ptr<obs::Histogram> lat_aggregate_ns_;
  std::shared_ptr<obs::Histogram> lat_announce_ns_;
  std::shared_ptr<obs::Histogram> lat_stats_ns_;
};

}  // namespace dcert::svc
