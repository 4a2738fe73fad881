// Client-side verified scatter-gather over a shard fleet. A query window is
// Split() at band boundaries; each subquery is answered by one shard and
// verified INDEPENDENTLY before merging. One call per attempt: the shard's
// reply carries the certified tip it answered at (read under the same lock
// as the proof build), and the client checks the proof against that tip's
// certified index digest. Nothing on the path — router, shard, network — is
// trusted; a corrupt or fabricated reply fails verification and the client
// fails over to another replica instead of accepting it. A reply at an older
// certified tip (a replica one announcement behind, or a router that picked
// a different replica) verifies against its own tip and is accepted.
//
// The tip's certificates (block cert over the header, index cert binding the
// digest, both from the pinned enclave measurement) are validated once per
// distinct tip, as the superlight client of Alg. 3 does: a validated tip is
// remembered by its wire key (QueryReply::tip_key, the SHA-256 of the tip
// field bytes every validated field was decoded from), in a small per-shard
// ring shared by every subquery, hedge and fan-out thread. Validation is a
// pure function of those bytes (a fresh SuperlightClient holds no state, so
// chain selection never applies), so a remembered tip is exactly one that
// would pass again; any changed byte misses and is validated in full. Only
// tips that passed are remembered. A reply that names its tip by key (the
// SP saw this connection's SpClient offer it) resolves to the TipInfo that
// SpClient decoded under that key, so the memo answers for it too. The proof
// is still verified per subquery.
//
// Failure handling per subquery:
//  * transport faults / kBusy   — retried inside SpClient (PR 3 policy),
//                                 then failed over to the next replica;
//  * verification failures      — counted, failed over (a lying replica must
//                                 not poison the merged result);
//  * kStaleShard                — the whole query refreshes the shard map
//                                 (bounded times) and re-splits/re-routes.
//
// Paranoid mode (cross_check): each subquery is independently verified on a
// second replica and the two verified results compared; a mismatch (e.g. a
// replica serving a divergent-but-certified view) fails the query loudly
// rather than silently picking one.
//
// Backends are addressed as (shard, replica). Through a router both map to
// the router's endpoint (the router picks real backends; set replicas to 1,
// the router fails over internally); in direct mode the connector dials the
// actual replica and the client fails over itself.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "dcert/enclave_program.h"
#include "fleet/health.h"
#include "fleet/shard_map.h"
#include "mht/mbtree.h"
#include "obs/metrics.h"
#include "query/historical_index.h"
#include "svc/sp_client.h"

namespace dcert::fleet {

struct FleetClientConfig {
  /// Enclave identity replies must be certified by.
  Hash256 expected_measurement = core::ExpectedEnclaveMeasurement();
  /// Per-backend-call retry policy (transport faults, kBusy sheds).
  svc::RetryPolicy retry;
  /// kStaleShard-triggered map refreshes allowed per logical query.
  int max_map_refreshes = 2;
  /// Paranoid cross-replica cross-check (see header comment).
  bool cross_check = false;
  /// Worker threads for HistoricalMany fan-out.
  std::size_t fanout_threads = 4;
  /// Shared per-backend health (circuit breakers + evidence quarantine);
  /// created internally when null. Share one instance with a FleetRouter or
  /// an operator thread to see/steer the same breaker state.
  std::shared_ptr<FleetHealth> health;
  HealthPolicy health_policy;
  /// Hedged subqueries: after an adaptive delay (p95 of verified-reply
  /// latencies clamped to [hedge_min_delay_us, hedge_max_delay_us]) the same
  /// subquery is launched on the next allowed replica and the first VERIFIED
  /// reply wins; the loser is discarded. Cuts tail latency when one replica
  /// is slow; costs duplicate work when the hedge fires needlessly.
  bool hedge = false;
  std::uint64_t hedge_min_delay_us = 500;
  std::uint64_t hedge_max_delay_us = 100000;
};

struct FleetClientStats {
  std::uint64_t queries = 0;             // logical client queries
  std::uint64_t subqueries = 0;          // per-shard pieces issued
  std::uint64_t verified = 0;            // subquery replies fully verified
  std::uint64_t verify_failures = 0;     // replies rejected by verification
  std::uint64_t failovers = 0;           // replica switches
  std::uint64_t map_refreshes = 0;       // kStaleShard-triggered refreshes
  std::uint64_t cross_checks = 0;        // paranoid double-verifications
  std::uint64_t cross_check_mismatches = 0;
  std::uint64_t giveups = 0;             // logical queries that failed
  std::uint64_t breaker_skips = 0;       // replicas skipped on an open breaker
  std::uint64_t hedges = 0;              // secondary attempts launched
  std::uint64_t hedge_wins = 0;          // secondary delivered first
  std::uint64_t hedge_wasted = 0;        // losers that completed anyway
  std::uint64_t tip_validations = 0;     // full tip certificate validations
};

class FleetClient {
 public:
  using BackendConnector =
      std::function<svc::Connector(std::uint32_t shard, std::uint32_t replica)>;

  FleetClient(ShardMap map, BackendConnector backends,
              FleetClientConfig config = {});
  ~FleetClient();
  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  struct QuerySpec {
    std::uint64_t account = 0;
    std::uint64_t from_height = 0;
    std::uint64_t to_height = 0;
  };

  /// Verified historical window query: merged per-shard pieces, ascending by
  /// block height (bands are disjoint and processed in order).
  Result<std::vector<query::HistoricalVersion>> Historical(
      std::uint64_t account, std::uint64_t from_height,
      std::uint64_t to_height);

  /// Verified aggregate (count, wrapping sum) over the window; per-band
  /// aggregates verify independently and sum.
  Result<mht::MbAggregate> Aggregate(std::uint64_t account,
                                     std::uint64_t from_height,
                                     std::uint64_t to_height);

  /// Parallel scatter-gather over many queries (fanout_threads workers);
  /// results align with `specs` by index.
  std::vector<Result<std::vector<query::HistoricalVersion>>> HistoricalMany(
      const std::vector<QuerySpec>& specs);

  /// Fetches a fresh map from the fleet (any backend; falls back across
  /// shards/replicas) and installs it if its version is newer.
  Status RefreshMap();

  /// Current map (copied under lock; the map is small).
  ShardMap Map() const;
  FleetClientStats Stats() const;
  /// The shared per-backend health state (breakers, quarantine, evidence).
  const std::shared_ptr<FleetHealth>& Health() const { return health_; }

 private:
  /// One verified subquery result (versions for kHistorical, aggregate for
  /// kAggregate).
  struct Slice {
    std::vector<query::HistoricalVersion> versions;
    mht::MbAggregate aggregate;
    std::uint64_t tip_height = 0;
  };

  /// Whole-query driver: split, per-subquery replica loop, merge; refreshes
  /// the map and restarts on kStaleShard.
  Result<Slice> Run(svc::Op op, std::uint64_t account,
                    std::uint64_t from_height, std::uint64_t to_height);
  /// Replica failover loop for one subquery. Sets *stale when the shard
  /// rejected our map version (caller refreshes and re-splits).
  Result<Slice> QueryShard(const ShardMap& map, svc::Op op,
                           const ShardMap::SubQuery& sub,
                           std::uint64_t account, bool* stale);
  /// One fully verified attempt against one replica: one call, its tip
  /// validated, its proof verified against that tip. Reports the outcome
  /// (success latency / benign failure / misbehavior evidence) to health_.
  Result<Slice> QueryReplica(const ShardMap& map, svc::Op op,
                             const ShardMap::SubQuery& sub,
                             std::uint64_t account, std::uint32_t replica,
                             bool* stale);
  /// Hedged attempt: primary starts immediately; after the adaptive delay
  /// the same subquery launches on `secondary` — admitted through the
  /// breaker only at that moment, and only if AllowRequest agrees — and the
  /// first verified reply wins. The loser keeps running detached-in-spirit
  /// (reaped later) so the winner's latency is what the caller sees. Sets
  /// *used_secondary when the secondary was actually queried, so the caller
  /// does not re-attempt it during failover.
  Result<Slice> QueryReplicaHedged(const ShardMap& map, svc::Op op,
                                   const ShardMap::SubQuery& sub,
                                   std::uint64_t account, std::uint32_t primary,
                                   std::uint32_t secondary, bool* stale,
                                   bool* used_secondary);

  /// Validates a reply's tip, decoded from field bytes whose key is `key`:
  /// block and index certificates against the pinned measurement, unless a
  /// tip under this key already passed (see the header comment). On failure
  /// returns the verdict and points *offending at the certificate that
  /// failed; a failed tip is not remembered.
  Status ValidateTip(std::uint32_t shard, const svc::TipInfo& tip,
                     const Hash256& key,
                     const core::BlockCertificate** offending);

  std::unique_ptr<svc::SpClient> Borrow(std::uint32_t shard,
                                        std::uint32_t replica);
  void Return(std::uint32_t shard, std::uint32_t replica,
              std::unique_ptr<svc::SpClient> client);

  /// One in-flight hedge attempt's slot: the worker writes its result and
  /// flips `done` as its last action before exiting.
  struct HedgeAttempt;
  /// Joins finished loser threads (opportunistic sweep + destructor drain).
  void ReapHedges(bool join_all);

  BackendConnector backends_;
  FleetClientConfig config_;

  mutable std::shared_mutex map_mu_;
  ShardMap map_;

  std::mutex pool_mu_;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<std::unique_ptr<svc::SpClient>>>
      pool_;
  std::uint64_t rr_ = 0;  // replica round-robin start, guarded by pool_mu_

  std::shared_ptr<FleetHealth> health_;

  /// Verified-tip memo: per shard, the keys of the last kTipMemoSlots tips
  /// that passed ValidateTip, overwritten round-robin. A few slots cover a
  /// lagging replica serving the previous tip next to a current one.
  static constexpr std::size_t kTipMemoSlots = 4;
  struct TipRing {
    std::vector<Hash256> keys;
    std::size_t next = 0;  // slot the next insert overwrites once full
  };
  std::mutex tip_memo_mu_;
  std::map<std::uint32_t, TipRing> tip_memo_;

  /// Loser threads from hedged attempts, joined once their slot reports
  /// done (swept on later hedges, drained by the destructor).
  std::mutex hedge_mu_;
  std::vector<std::pair<std::thread, std::shared_ptr<HedgeAttempt>>>
      hedge_reap_;

  std::shared_ptr<obs::Counter> queries_;
  std::shared_ptr<obs::Counter> subqueries_;
  std::shared_ptr<obs::Counter> verified_;
  std::shared_ptr<obs::Counter> verify_failures_;
  std::shared_ptr<obs::Counter> failovers_;
  std::shared_ptr<obs::Counter> map_refreshes_;
  std::shared_ptr<obs::Counter> cross_checks_;
  std::shared_ptr<obs::Counter> cross_check_mismatches_;
  std::shared_ptr<obs::Counter> giveups_;
  std::shared_ptr<obs::Counter> breaker_skips_;
  std::shared_ptr<obs::Counter> hedges_;
  std::shared_ptr<obs::Counter> hedge_wins_;
  std::shared_ptr<obs::Counter> hedge_wasted_;
  std::shared_ptr<obs::Counter> tip_validations_;
};

}  // namespace dcert::fleet
