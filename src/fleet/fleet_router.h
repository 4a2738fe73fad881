// Untrusted routing front tier for a shard fleet. The router never touches
// proofs or certificates — it forwards opaque frames — so a compromised
// router can deny service but can never make a client accept a wrong answer:
// every reply a client acts on still carries its own certificate + proof and
// is verified client-side (the DCert property that makes an untrusted front
// tier safe at all).
//
// Per-op behavior:
//  * kShardMap        — answered locally from the router's own map.
//  * kShardScoped     — version-checked, then forwarded verbatim to a replica
//                       of the addressed shard (per-shard round-robin start,
//                       sequential failover on transient faults). The shard re-checks
//                       (version, shard_id) itself; the router check only
//                       exists to fail stale clients fast.
//  * kAnnounce        — fanned out to every replica of every shard; "stale
//                       height" rejections count as already-applied (fan-out
//                       retries are idempotent).
//  * kTipFetch/kStats — forwarded to a round-robin backend (any shard holds
//                       the full chain).
//  * plain queries    — forwarded to the owning shard when the window sits in
//                       one band; multi-band windows are refused with an
//                       error telling the client to scatter-gather itself
//                       (the router must not merge proofs it cannot verify).
//
// Backend connections are pooled per (shard, replica); a failed call drops
// the pooled connection and the next one redials.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fleet/health.h"
#include "fleet/shard_map.h"
#include "obs/metrics.h"
#include "svc/transport.h"

namespace dcert::fleet {

struct FleetRouterConfig {
  /// Deadline for each backend round trip.
  std::chrono::milliseconds backend_deadline{5000};
  /// Shared per-backend health (circuit breakers); created internally when
  /// null. The router only observes transport-level outcomes — it cannot
  /// verify proofs, so it never quarantines; breakers here are purely the
  /// benign (crash/slow) plane, and CallBackend skips open ones.
  std::shared_ptr<FleetHealth> health;
  HealthPolicy health_policy;
};

struct FleetRouterStats {
  std::uint64_t forwarded = 0;        // frames routed to a single backend
  std::uint64_t fanouts = 0;          // announcements fanned to all shards
  std::uint64_t failovers = 0;        // replica retries after a backend fault
  std::uint64_t shard_map_serves = 0; // kShardMap answered locally
  std::uint64_t stale_rejects = 0;    // stale-version requests refused
  std::uint64_t errors = 0;           // frames answered with kError locally
};

class FleetRouter {
 public:
  /// Dials replica `replica` of shard `shard`; wraps TCP or loopback alike.
  using BackendConnector =
      std::function<svc::Connector(std::uint32_t shard, std::uint32_t replica)>;

  FleetRouter(ShardMap map, BackendConnector backends,
              FleetRouterConfig config = {});
  ~FleetRouter();
  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Registers with `transport` and starts routing. The transport must
  /// outlive the router (or Shutdown must run first).
  Status Serve(svc::ServerTransport& transport);
  void Shutdown();

  const ShardMap& Map() const { return map_; }
  FleetRouterStats Stats() const;
  /// The shared per-backend health state (breakers; see config note).
  const std::shared_ptr<FleetHealth>& Health() const { return health_; }

 private:
  /// Transport-thread entry; routing runs inline (the router is a thin
  /// forwarder, concurrency comes from the transport's threads).
  void HandleFrame(Bytes request, svc::Respond respond);
  Bytes Process(const Bytes& request);
  Bytes ProcessAnnounceFanout(const Bytes& request);
  /// One backend round trip with replica failover; returns the raw reply
  /// frame (which may itself be kBusy/kError — forwarded verbatim).
  Result<Bytes> CallBackend(std::uint32_t shard, const Bytes& frame);
  /// Exactly one (shard, replica) attempt, reusing a pooled connection.
  Result<Bytes> CallReplica(std::uint32_t shard, std::uint32_t replica,
                            const Bytes& frame);
  std::uint32_t NextRoundRobin();

  ShardMap map_;
  BackendConnector backends_;
  FleetRouterConfig config_;
  std::shared_ptr<FleetHealth> health_;
  svc::ServerTransport* transport_ = nullptr;

  std::mutex pool_mu_;
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::vector<std::unique_ptr<svc::ClientTransport>>>
      pool_;
  std::uint64_t round_robin_ = 0;  // guarded by pool_mu_
  /// Per-shard replica rotation (guarded by pool_mu_). One fleet-wide
  /// counter would lock a client that alternates shards onto one replica
  /// of each.
  std::vector<std::uint64_t> replica_rr_;

  std::shared_ptr<obs::Counter> forwarded_;
  std::shared_ptr<obs::Counter> fanouts_;
  std::shared_ptr<obs::Counter> failovers_;
  std::shared_ptr<obs::Counter> shard_map_serves_;
  std::shared_ptr<obs::Counter> stale_rejects_;
  std::shared_ptr<obs::Counter> errors_;
};

}  // namespace dcert::fleet
