// Fleet subsystem: shard-map partition arithmetic (every key/height owned by
// exactly one shard, exact window splitting, serialization), shard-scoped
// serving (stale map versions rejected retryably, shard-local cache
// invalidation), the untrusted router (forwarding, announce fan-out, local
// shard-map serving), and the verified scatter-gather client — including a
// seeded fault soak between the router and one shard replica proving zero
// corrupt results are ever accepted, replicas a block apart behind a router
// answering correctly with no one quarantined (once static, once under
// continuous announcements), the paranoid cross-check catching a
// divergent (lagging) replica, and the verified-tip memo (each distinct tip
// validated once; a tampered tip or forged proof rejected even after an
// honest tip of the same height is remembered, and a reply naming the
// client's tip by key with a proof from another tip caught as evidence).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain/node.h"
#include "common/rng.h"
#include "dcert/issuer.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_router.h"
#include "fleet/shard_map.h"
#include "query/extraction.h"
#include "query/historical_index.h"
#include "svc/fault_transport.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "workloads/workloads.h"

namespace dcert::fleet {
namespace {

/// A small certified chain shared by the tests, plus one account known to be
/// written in the LAST block (so a replica lagging one block serves a
/// provably different answer for it).
struct FleetChain {
  std::vector<svc::AnnounceRequest> announcements;
  std::uint64_t hot_account = 0;   // written in the last block
  std::uint64_t tip_height = 0;

  explicit FleetChain(int blocks, std::size_t txs = 8) {
    chain::ChainConfig config;
    config.difficulty_bits = 2;
    auto registry = workloads::MakeBlockbenchRegistry(1);
    core::CertificateIssuer ci(config, registry);
    auto hist = std::make_shared<query::HistoricalIndex>("historical");
    ci.AttachIndex(hist);
    chain::FullNode node(config, registry);
    chain::Miner miner(node);
    workloads::AccountPool pool(4, 77);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    params.kv_keys = 8;
    workloads::WorkloadGenerator gen(params, pool);

    for (int i = 0; i < blocks; ++i) {
      auto block = miner.MineBlock(gen.NextBlockTxs(txs),
                                   1700000000 + node.Height() * 15);
      if (!block.ok()) throw std::runtime_error("mine: " + block.message());
      if (Status st = node.SubmitBlock(block.value()); !st) {
        throw std::runtime_error("submit: " + st.message());
      }
      auto icerts = ci.ProcessBlockHierarchical(block.value());
      if (!icerts.ok()) throw std::runtime_error("certify: " + icerts.message());
      svc::AnnounceRequest ann;
      ann.block = block.value();
      ann.block_cert = *ci.LatestCert();
      ann.index_digest = hist->CurrentDigest();
      ann.index_cert = icerts.value()[0];
      announcements.push_back(std::move(ann));
    }
    auto last_writes =
        query::ExtractHistoricalWrites(announcements.back().block);
    if (last_writes.empty()) {
      throw std::runtime_error("last block produced no historical writes");
    }
    hot_account = last_writes.front().account_word;
    tip_height = announcements.back().block.header.height;
  }
};

const FleetChain& Chain() {
  static FleetChain chain(6);
  return chain;
}

ShardMap MustCreate(const ShardMapConfig& cfg) {
  auto map = ShardMap::Create(cfg);
  if (!map.ok()) throw std::runtime_error(map.message());
  return map.value();
}

/// A longer chain for tests that keep announcing while they query.
const FleetChain& LongChain() {
  static FleetChain chain(20);
  return chain;
}

/// A live in-process shard fleet: one sharded SpServer per shard x replica,
/// each on its own loopback transport, each holding the first `blocks`
/// blocks of `chain` (all of them by default).
struct LiveFleet {
  ShardMap map;
  std::vector<std::vector<std::unique_ptr<svc::LoopbackTransport>>> transports;
  std::vector<std::vector<std::unique_ptr<svc::SpServer>>> servers;

  explicit LiveFleet(const ShardMapConfig& cfg,
                     int lag_blocks_for_last_replica = 0,
                     const FleetChain& chain = Chain(),
                     std::size_t blocks = std::numeric_limits<std::size_t>::max())
      : map(MustCreate(cfg)) {
    blocks = std::min(blocks, chain.announcements.size());
    transports.resize(map.TotalShards());
    servers.resize(map.TotalShards());
    for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
      for (std::uint32_t r = 0; r < map.Replicas(); ++r) {
        svc::SpServerConfig config;
        config.shard = map.AssignmentFor(s);
        config.shard_map = map.Serialize();
        auto server = std::make_unique<svc::SpServer>(config);
        auto transport = std::make_unique<svc::LoopbackTransport>();
        Status st = server->Serve(*transport);
        if (!st.ok()) throw std::runtime_error(st.message());
        // The last replica may deliberately lag (divergence tests).
        const bool lags = lag_blocks_for_last_replica > 0 &&
                          r + 1 == map.Replicas();
        const std::size_t count =
            blocks -
            (lags ? static_cast<std::size_t>(lag_blocks_for_last_replica) : 0);
        for (std::size_t i = 0; i < count; ++i) {
          if (Status ast = server->Announce(chain.announcements[i]); !ast) {
            throw std::runtime_error(ast.message());
          }
        }
        transports[s].push_back(std::move(transport));
        servers[s].push_back(std::move(server));
      }
    }
  }

  ~LiveFleet() {
    for (auto& per_shard : servers) {
      for (auto& server : per_shard) server->Shutdown();
    }
  }

  FleetClient::BackendConnector DirectConnector() {
    return [this](std::uint32_t s, std::uint32_t r) -> svc::Connector {
      svc::LoopbackTransport* lb = transports[s][r].get();
      return [lb] {
        return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
      };
    };
  }
};

/// Rewrites the tip or the proof inside one connection's decoded query
/// replies in flight and re-encodes them, so the frames still parse and only
/// verification can catch the lie. While a hook is set the request's offered
/// tip key is dropped, so the replica answers with the full tip for the hook
/// to rewrite. The test sets the hooks between queries.
struct ReplyTamper {
  std::function<void(svc::TipInfo&)> tip;
  std::function<void(query::HistoricalQueryProof&)> proof;
};

/// The shard-scoped query `scoped` as a frame that offers no tip key.
Bytes WithoutTipKey(const svc::ShardScopedRequest& scoped,
                    const svc::QueryRequest& query) {
  return svc::EncodeShardScopedRequest(scoped.map_version, scoped.shard_id,
                                       svc::EncodeQueryRequest(query));
}

class TamperingTransport final : public svc::ClientTransport {
 public:
  TamperingTransport(std::unique_ptr<svc::ClientTransport> inner,
                     const ReplyTamper* tamper)
      : inner_(std::move(inner)), tamper_(tamper) {}

  Result<Bytes> Call(ByteView request,
                     std::chrono::milliseconds deadline) override {
    if (!tamper_->tip && !tamper_->proof) return inner_->Call(request, deadline);
    auto scoped = svc::DecodeShardScopedRequest(request);
    if (!scoped.ok()) return inner_->Call(request, deadline);
    auto query = svc::DecodeQueryRequest(scoped.value().inner);
    if (!query.ok() || query.value().query.op != svc::Op::kHistorical) {
      return inner_->Call(request, deadline);
    }
    auto reply = inner_->Call(
        WithoutTipKey(scoped.value(), query.value().query), deadline);
    if (!reply.ok()) return reply;
    auto env = svc::DecodeReplyEnvelope(reply.value());
    if (!env.ok() || env.value().code != svc::Code::kOk) return reply;
    auto body = svc::DecodeQueryReply(env.value().body, std::nullopt);
    if (!body.ok()) return reply;
    if (tamper_->tip) tamper_->tip(body.value().tip);
    if (tamper_->proof) tamper_->proof(body.value().proof);
    return svc::AssembleQueryReply(svc::EncodeTip(body.value().tip),
                                   std::nullopt,
                                   body.value().proof.Serialize());
  }

 private:
  std::unique_ptr<svc::ClientTransport> inner_;
  const ReplyTamper* tamper_;
};

/// A replica that lies by reference: while `lie` is set, a query offering a
/// tip key is answered with that key (the client's own tip) but with the
/// proof `other` builds, at its own, different tip.
class ByReferenceLiar final : public svc::ClientTransport {
 public:
  ByReferenceLiar(std::unique_ptr<svc::ClientTransport> honest,
                  std::unique_ptr<svc::ClientTransport> other,
                  const std::atomic<bool>* lie)
      : honest_(std::move(honest)), other_(std::move(other)), lie_(lie) {}

  Result<Bytes> Call(ByteView request,
                     std::chrono::milliseconds deadline) override {
    if (!lie_->load()) return honest_->Call(request, deadline);
    auto scoped = svc::DecodeShardScopedRequest(request);
    if (!scoped.ok()) return honest_->Call(request, deadline);
    auto query = svc::DecodeQueryRequest(scoped.value().inner);
    if (!query.ok() || !query.value().held_tip_key) {
      return honest_->Call(request, deadline);
    }
    auto reply = other_->Call(
        WithoutTipKey(scoped.value(), query.value().query), deadline);
    if (!reply.ok()) return reply;
    auto env = svc::DecodeReplyEnvelope(reply.value());
    if (!env.ok() || env.value().code != svc::Code::kOk) return reply;
    auto body = svc::DecodeQueryReply(env.value().body, std::nullopt);
    if (!body.ok()) return reply;
    const Hash256& key = *query.value().held_tip_key;
    return svc::AssembleQueryReply(svc::EncodedTip{{}, key}, key,
                                   body.value().proof.Serialize());
  }

 private:
  std::unique_ptr<svc::ClientTransport> honest_;
  std::unique_ptr<svc::ClientTransport> other_;
  const std::atomic<bool>* lie_;
};

FleetClient::BackendConnector TamperingConnector(LiveFleet& fleet,
                                                 const ReplyTamper* tamper) {
  return [&fleet, tamper](std::uint32_t s, std::uint32_t r) -> svc::Connector {
    svc::LoopbackTransport* lb = fleet.transports[s][r].get();
    return [lb, tamper] {
      return Result<std::unique_ptr<svc::ClientTransport>>(
          std::make_unique<TamperingTransport>(lb->Connect(), tamper));
    };
  };
}

/// Client backends that all dial the router serving on `front`.
FleetClient::BackendConnector ViaFront(svc::LoopbackTransport& front) {
  return [&front](std::uint32_t, std::uint32_t) -> svc::Connector {
    return [&front] {
      return Result<std::unique_ptr<svc::ClientTransport>>(front.Connect());
    };
  };
}

/// Two height bands (two shards for a full-window query), `replicas` each.
ShardMapConfig TwoBandConfig(std::uint32_t replicas) {
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.height_bands = 2;
  cfg.band_blocks = 4;
  cfg.replicas = replicas;
  return cfg;
}

// ---------------------------------------------------------------------------
// Shard-map arithmetic
// ---------------------------------------------------------------------------

TEST(ShardMapTest, EveryKeyAndHeightOwnedByExactlyOneShard) {
  ShardMapConfig cfg;
  cfg.version = 3;
  cfg.key_shards = 4;
  cfg.height_bands = 3;
  cfg.band_blocks = 5;
  const ShardMap map = MustCreate(cfg);
  ASSERT_EQ(map.TotalShards(), 12u);

  std::vector<svc::ShardAssignment> assignments;
  for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
    assignments.push_back(map.AssignmentFor(s));
    EXPECT_TRUE(assignments.back().Sharded());
    EXPECT_EQ(assignments.back().map_version, cfg.version);
    EXPECT_EQ(assignments.back().shard_id, s);
  }

  // Accounts probe the key-shard boundaries (quarters of the 64-bit space)
  // plus extremes; heights sweep every band including the open-ended last.
  const std::uint64_t quarter = std::uint64_t{1} << 62;
  const std::vector<std::uint64_t> accounts = {
      0,       1,           quarter - 1,     quarter,      quarter + 1,
      2 * quarter - 1,      2 * quarter,     3 * quarter,  3 * quarter + 7,
      ~std::uint64_t{0} - 1, ~std::uint64_t{0}, 0x123456789abcdefULL};
  std::vector<std::uint64_t> heights;
  for (std::uint64_t h = 0; h <= 17; ++h) heights.push_back(h);
  heights.push_back(1000000);

  for (const std::uint64_t account : accounts) {
    for (const std::uint64_t height : heights) {
      const std::uint32_t owner = map.ShardOf(account, height);
      ASSERT_LT(owner, map.TotalShards());
      int owners = 0;
      for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
        if (assignments[s].OwnsWrite(account, height)) {
          ++owners;
          EXPECT_EQ(s, owner) << "account " << account << " height " << height;
        }
      }
      EXPECT_EQ(owners, 1) << "account " << account << " height " << height;
    }
  }
}

TEST(ShardMapTest, SplitCoversWindowExactly) {
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.key_shards = 2;
  cfg.height_bands = 3;
  cfg.band_blocks = 10;
  const ShardMap map = MustCreate(cfg);

  const std::uint64_t account = 42;
  const auto subs = map.Split(account, 1, 35);
  ASSERT_EQ(subs.size(), 3u);  // [1,9] [10,19] [20,35]
  EXPECT_EQ(subs[0].from_height, 1u);
  EXPECT_EQ(subs[0].to_height, 9u);
  EXPECT_EQ(subs[1].from_height, 10u);
  EXPECT_EQ(subs[1].to_height, 19u);
  EXPECT_EQ(subs[2].from_height, 20u);
  EXPECT_EQ(subs[2].to_height, 35u);
  for (std::size_t i = 0; i < subs.size(); ++i) {
    // Each piece sits entirely in one band and names the shard owning it.
    EXPECT_EQ(subs[i].shard_id, map.ShardOf(account, subs[i].from_height));
    EXPECT_EQ(subs[i].shard_id, map.ShardOf(account, subs[i].to_height));
    if (i > 0) {
      EXPECT_EQ(subs[i].from_height, subs[i - 1].to_height + 1);
    }
  }

  // A window inside one band is a single piece; inverted windows are empty.
  ASSERT_EQ(map.Split(account, 12, 17).size(), 1u);
  EXPECT_TRUE(map.Split(account, 9, 3).empty());
  // The open-ended last band swallows arbitrarily high windows.
  const auto far = map.Split(account, 25, 1000000);
  ASSERT_EQ(far.size(), 1u);
  EXPECT_EQ(far[0].shard_id, map.ShardOf(account, 1000000));
}

TEST(ShardMapTest, SerializeRoundTripsAndRejectsGarbage) {
  ShardMapConfig cfg;
  cfg.version = 7;
  cfg.key_shards = 2;
  cfg.height_bands = 2;
  cfg.band_blocks = 4;
  cfg.replicas = 2;
  std::vector<std::vector<std::string>> eps(4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    eps[s] = {"127.0.0.1:" + std::to_string(9000 + 2 * s),
              "127.0.0.1:" + std::to_string(9001 + 2 * s)};
  }
  auto map = ShardMap::Create(cfg, eps);
  ASSERT_TRUE(map.ok()) << map.message();

  const Bytes wire = map.value().Serialize();
  auto back = ShardMap::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().Version(), 7u);
  EXPECT_EQ(back.value().KeyShards(), 2u);
  EXPECT_EQ(back.value().HeightBands(), 2u);
  EXPECT_EQ(back.value().Replicas(), 2u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(back.value().Endpoints(s), eps[s]);
  }

  // Truncations and junk must fail cleanly, never crash or mis-size.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, wire.size() - 1}) {
    Bytes trunc(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(ShardMap::Deserialize(trunc).ok()) << "cut=" << cut;
  }

  // Config validation: version 0 is reserved for "unsharded", bands need a
  // band size, and the endpoint grid must match the shard/replica shape.
  ShardMapConfig bad = cfg;
  bad.version = 0;
  EXPECT_FALSE(ShardMap::Create(bad).ok());
  bad = cfg;
  bad.band_blocks = 0;
  EXPECT_FALSE(ShardMap::Create(bad).ok());
  bad = cfg;
  bad.key_shards = 0;
  EXPECT_FALSE(ShardMap::Create(bad).ok());
  eps.pop_back();
  EXPECT_FALSE(ShardMap::Create(cfg, eps).ok());
}

// ---------------------------------------------------------------------------
// Shard-scoped serving
// ---------------------------------------------------------------------------

TEST(ShardServingTest, StaleMapVersionRejectedRetryably) {
  ShardMapConfig cfg;
  cfg.version = 2;
  cfg.key_shards = 1;
  LiveFleet fleet(cfg);
  svc::SpClient client(fleet.transports[0][0]->Connect());
  const auto& chain = Chain();

  // Correct version and shard: served and verifiable.
  auto ok = client.HistoricalSharded(2, 0, chain.hot_account, 1,
                                     chain.tip_height);
  ASSERT_TRUE(ok.ok()) << ok.message();

  // Stale version: rejected with the retryable kStaleShard status the client
  // surfaces via LastReplyStaleShard (FleetClient's refresh trigger).
  auto stale = client.HistoricalSharded(1, 0, chain.hot_account, 1,
                                        chain.tip_height);
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(client.LastReplyStaleShard());
  EXPECT_EQ(client.Stats().stale_shard_replies, 1u);

  // Wrong shard id at the right version: same rejection (misrouted frame).
  auto misrouted = client.HistoricalSharded(2, 5, chain.hot_account, 1,
                                            chain.tip_height);
  EXPECT_FALSE(misrouted.ok());
  EXPECT_TRUE(client.LastReplyStaleShard());
  EXPECT_GE(fleet.servers[0][0]->Stats().shard_rejects, 2u);

  // The rejected client refreshes: the served map decodes to the live
  // version, after which the query succeeds.
  auto wire = client.FetchShardMap();
  ASSERT_TRUE(wire.ok()) << wire.message();
  auto fresh = ShardMap::Deserialize(wire.value());
  ASSERT_TRUE(fresh.ok()) << fresh.message();
  EXPECT_EQ(fresh.value().Version(), 2u);
  auto retry = client.HistoricalSharded(fresh.value().Version(), 0,
                                        chain.hot_account, 1, chain.tip_height);
  EXPECT_TRUE(retry.ok()) << retry.message();
}

TEST(ShardServingTest, OutOfShardAnnouncementSkipsCacheInvalidation) {
  // A shard owning only the first height band: announcements for later
  // heights still apply (the index must stay full for proofs to verify) but
  // must not flush the reply cache — nothing this shard serves changed.
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.height_bands = 2;
  cfg.band_blocks = 4;  // band 0 owns heights [0,3]
  const ShardMap map = MustCreate(cfg);
  svc::SpServerConfig config;
  config.shard = map.AssignmentFor(0);
  config.shard_map = map.Serialize();
  svc::SpServer server(config);
  svc::LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());

  const auto& chain = Chain();
  for (std::size_t i = 0; i < 3; ++i) {  // heights 1..3: in-band writes
    ASSERT_TRUE(server.Announce(chain.announcements[i]).ok());
  }
  // Warm the cache with an owned-window query.
  svc::SpClient client(loopback.Connect());
  auto warm = client.HistoricalSharded(1, 0, chain.hot_account, 1, 3);
  ASSERT_TRUE(warm.ok()) << warm.message();
  const auto before = server.Stats().cache;

  // Heights 4..6 write outside the owned band: applied, but the flush is
  // skipped (satellite: out-of-shard announcements don't flush needlessly).
  for (std::size_t i = 3; i < chain.announcements.size(); ++i) {
    ASSERT_TRUE(server.Announce(chain.announcements[i]).ok());
  }
  const auto after = server.Stats().cache;
  EXPECT_EQ(after.invalidations, before.invalidations);
  EXPECT_GE(after.invalidations_skipped, before.invalidations_skipped + 3);
  EXPECT_EQ(server.Stats().blocks_applied, chain.announcements.size());
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Router + verified scatter-gather
// ---------------------------------------------------------------------------

TEST(FleetRouterTest, RoutesAnnouncesAndServesMapEndToEnd) {
  // Two height-band shards behind a router; the client's whole-window query
  // splits across both shards and each piece verifies independently.
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.height_bands = 2;
  cfg.band_blocks = 4;
  const auto& chain = Chain();

  // Empty servers: the router's announce fan-out populates them.
  const ShardMap map = MustCreate(cfg);
  std::vector<std::unique_ptr<svc::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<svc::SpServer>> servers;
  for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
    svc::SpServerConfig config;
    config.shard = map.AssignmentFor(s);
    config.shard_map = map.Serialize();
    servers.push_back(std::make_unique<svc::SpServer>(config));
    transports.push_back(std::make_unique<svc::LoopbackTransport>());
    ASSERT_TRUE(servers.back()->Serve(*transports.back()).ok());
  }
  FleetRouter router(
      map,
      [&transports](std::uint32_t s, std::uint32_t) -> svc::Connector {
        svc::LoopbackTransport* lb = transports[s].get();
        return [lb] {
          return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
        };
      });
  svc::LoopbackTransport front;
  ASSERT_TRUE(router.Serve(front).ok());

  // Announce through the router: every shard applies every block.
  svc::SpClient announcer(front.Connect());
  for (const auto& ann : chain.announcements) {
    auto ack = announcer.Announce(ann);
    ASSERT_TRUE(ack.ok()) << ack.message();
  }
  for (const auto& server : servers) {
    EXPECT_EQ(server->Stats().blocks_applied, chain.announcements.size());
  }

  // Re-announcing is idempotent: the duplicates are rejected shard-side as
  // stale but the fan-out still reports success.
  auto dup = announcer.Announce(chain.announcements.back());
  EXPECT_TRUE(dup.ok()) << dup.message();

  // Scatter-gather through the router: the window spans both bands, and the
  // merged result equals the single-server truth.
  FleetClient client(map, ViaFront(front));
  auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(got.ok()) << got.message();
  EXPECT_EQ(client.Stats().subqueries, 2u);
  EXPECT_EQ(client.Stats().verified, 2u);

  LiveFleet direct(ShardMapConfig{});  // unsharded single server, same chain
  FleetClient truth(direct.map, direct.DirectConnector());
  auto want = truth.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(want.ok()) << want.message();
  EXPECT_EQ(got.value(), want.value());

  auto agg = client.Aggregate(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(agg.ok()) << agg.message();
  EXPECT_EQ(agg.value().count, static_cast<std::uint64_t>(want.value().size()));

  // The router serves its own map (RefreshMap goes through kShardMap) and
  // refuses to merge multi-band plain queries it cannot verify.
  EXPECT_TRUE(client.RefreshMap().ok());
  auto plain = announcer.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(plain.ok());
  EXPECT_NE(plain.message().find("scatter-gather"), std::string::npos)
      << plain.message();

  const auto stats = router.Stats();
  EXPECT_GT(stats.forwarded, 0u);
  EXPECT_GE(stats.fanouts, chain.announcements.size());
  EXPECT_GT(stats.shard_map_serves, 0u);
  EXPECT_GT(stats.errors, 0u);  // the refused plain multi-band query

  router.Shutdown();
  for (auto& server : servers) server->Shutdown();
}

TEST(FleetRouterTest, SeededFaultSoakAcceptsZeroCorruptReplies) {
  // A seeded FaultInjectingTransport sits between the router and replica 0
  // of shard 0, corrupting/truncating/dropping backend replies. The client
  // must never accept a reply that fails verification: every answer it does
  // return equals the clean-fleet truth, and the damaged replies show up as
  // verify failures + replica failovers instead of wrong data.
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.height_bands = 2;
  cfg.band_blocks = 4;
  cfg.replicas = 2;
  LiveFleet fleet(cfg);
  const auto& chain = Chain();

  auto counters = std::make_shared<svc::FaultCounters>();
  svc::FaultConfig fc;
  fc.corrupt_rate = 0.6;
  fc.truncate_rate = 0.2;
  fc.seed = 0xF1EE7;
  FleetRouterConfig rc;
  rc.backend_deadline = std::chrono::milliseconds(500);
  FleetRouter router(
      fleet.map,
      [&fleet, &fc, &counters](std::uint32_t s,
                               std::uint32_t r) -> svc::Connector {
        svc::LoopbackTransport* lb = fleet.transports[s][r].get();
        svc::Connector dial = [lb] {
          return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
        };
        if (s == 0 && r == 0) {
          return svc::FaultyConnector(std::move(dial), fc, counters);
        }
        return dial;
      },
      rc);
  svc::LoopbackTransport front;
  ASSERT_TRUE(router.Serve(front).ok());

  // Ground truth from the same fleet over clean direct connections.
  FleetClient truth(fleet.map, fleet.DirectConnector());
  FleetClient client(fleet.map, ViaFront(front));

  int answered = 0;
  for (int round = 0; round < 20; ++round) {
    auto want = truth.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(want.ok()) << want.message();
    auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
    if (!got.ok()) continue;  // denial is allowed; wrong data never is
    ++answered;
    EXPECT_EQ(got.value(), want.value()) << "round " << round;
  }
  const auto stats = client.Stats();
  EXPECT_GT(answered, 0);
  EXPECT_GT(counters->Total(), 0u);          // the soak really injected faults
  EXPECT_GT(stats.verify_failures, 0u);      // damaged replies were rejected
  EXPECT_GT(stats.failovers, 0u);            // ... and retried on a replica
  EXPECT_EQ(stats.cross_check_mismatches, 0u);

  router.Shutdown();
}

/// Every account the first `blocks` blocks of `chain` write, so random
/// queries hit real versions.
std::vector<std::uint64_t> WrittenAccounts(const FleetChain& chain,
                                           std::size_t blocks) {
  std::vector<std::uint64_t> accounts;
  for (std::size_t i = 0; i < blocks; ++i) {
    for (const query::HistEntry& e :
         query::ExtractHistoricalWrites(chain.announcements[i].block)) {
      if (std::find(accounts.begin(), accounts.end(), e.account_word) ==
          accounts.end()) {
        accounts.push_back(e.account_word);
      }
    }
  }
  return accounts;
}

/// Runs `n` seeded random verified queries (windows inside [1, max_height])
/// through `client` and checks each against `truth`, an unsharded fleet
/// client over the same chain.
void QueryMatchesTruth(FleetClient& client, FleetClient& truth,
                       const std::vector<std::uint64_t>& accounts,
                       std::uint64_t max_height, int n, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t account =
        accounts[rng.NextBelow(static_cast<std::uint64_t>(accounts.size()))];
    const std::uint64_t from = rng.NextRange(1, max_height);
    const std::uint64_t to = rng.NextRange(from, max_height);
    if (i % 3 == 2) {
      auto want = truth.Aggregate(account, from, to);
      ASSERT_TRUE(want.ok()) << want.message();
      auto got = client.Aggregate(account, from, to);
      ASSERT_TRUE(got.ok()) << "query " << i << ": " << got.message();
      EXPECT_EQ(got.value().count, want.value().count) << "query " << i;
      EXPECT_EQ(got.value().sum, want.value().sum) << "query " << i;
    } else {
      auto want = truth.Historical(account, from, to);
      ASSERT_TRUE(want.ok()) << want.message();
      auto got = client.Historical(account, from, to);
      ASSERT_TRUE(got.ok()) << "query " << i << ": " << got.message();
      EXPECT_EQ(got.value(), want.value()) << "query " << i;
    }
  }
}

TEST(FleetRouterTest, ReplicaOneAnnouncementBehindIsStaleNotEvidence) {
  // 2 height bands x 2 replicas behind a router. Block h+1 reaches replica 0
  // of each shard only, so replica 1 is one announcement behind. The router
  // alternates replicas, so one subquery's calls land on different tips;
  // each reply carries the tip it was built at, so every answer verifies
  // and neither honest replica is taken for a liar.
  const auto& chain = Chain();
  LiveFleet fleet(TwoBandConfig(/*replicas=*/2),
                  /*lag_blocks_for_last_replica=*/1);
  const std::uint64_t h = chain.tip_height - 1;
  FleetRouter router(fleet.map, fleet.DirectConnector());
  svc::LoopbackTransport front;
  ASSERT_TRUE(router.Serve(front).ok());

  LiveFleet direct(ShardMapConfig{});  // unsharded single server, same chain
  FleetClient truth(direct.map, direct.DirectConnector());
  FleetClient client(fleet.map, ViaFront(front));
  QueryMatchesTruth(client, truth, WrittenAccounts(chain, h), h, 60, 0x1A6);

  const auto stats = client.Stats();
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.giveups, 0u);
  EXPECT_TRUE(client.Health()->Evidence().empty());
  EXPECT_FALSE(client.Health()->Quarantined(0));
  EXPECT_FALSE(client.Health()->Quarantined(1));
  // Both tips of both shards were served and validated once each.
  EXPECT_EQ(stats.tip_validations, 4u);
  router.Shutdown();
}

TEST(FleetRouterTest, ContinuousAnnounceSoakQuarantinesNoHonestReplica) {
  // The same 2x2 fleet behind a router, now with blocks announced through
  // the router while two threads query: the fan-out reaches the replicas
  // one at a time, so replicas of a shard keep drifting a block apart.
  const auto& chain = LongChain();
  constexpr std::size_t kStart = 8;
  LiveFleet fleet(TwoBandConfig(/*replicas=*/2), 0, chain, kStart);
  FleetRouter router(fleet.map, fleet.DirectConnector());
  svc::LoopbackTransport front;
  ASSERT_TRUE(router.Serve(front).ok());

  LiveFleet direct(ShardMapConfig{}, 0, chain);
  FleetClient truth(direct.map, direct.DirectConnector());
  FleetClient client(fleet.map, ViaFront(front));
  const auto accounts = WrittenAccounts(chain, kStart);

  std::atomic<bool> announcing{true};
  std::thread announcer([&] {
    svc::SpClient sp(front.Connect());
    for (std::size_t i = kStart; i < chain.announcements.size(); ++i) {
      auto ack = sp.Announce(chain.announcements[i]);
      EXPECT_TRUE(ack.ok()) << ack.message();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    announcing = false;
  });
  std::vector<std::thread> queriers;
  for (std::uint64_t t = 0; t < 2; ++t) {
    queriers.emplace_back([&, t] {
      for (std::uint64_t round = 0; announcing.load() || round < 2; ++round) {
        QueryMatchesTruth(client, truth, accounts, kStart, 25,
                          0x50A + t * 1000 + round);
      }
    });
  }
  announcer.join();
  for (auto& q : queriers) q.join();

  for (const auto& per_shard : fleet.servers) {
    for (const auto& server : per_shard) {
      EXPECT_EQ(server->Stats().tip_height, chain.tip_height);
    }
  }
  const auto stats = client.Stats();
  EXPECT_GE(stats.queries, 100u);
  EXPECT_EQ(stats.verify_failures, 0u);
  EXPECT_EQ(stats.giveups, 0u);
  EXPECT_TRUE(client.Health()->Evidence().empty());
  EXPECT_FALSE(client.Health()->Quarantined(0));
  EXPECT_FALSE(client.Health()->Quarantined(1));
  router.Shutdown();
}

TEST(FleetClientTest, ParanoidCrossCheckCatchesLaggingReplica) {
  // Replica 1 is one certified block behind. Both replicas' replies verify
  // (each against its own certified tip), so only the paranoid cross-check
  // can notice the divergence — and it must fail loudly, not pick one.
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.replicas = 2;
  LiveFleet fleet(cfg, /*lag_blocks_for_last_replica=*/1);
  const auto& chain = Chain();

  FleetClientConfig paranoid;
  paranoid.cross_check = true;
  FleetClient client(fleet.map, fleet.DirectConnector(), paranoid);
  auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(got.ok());
  EXPECT_GE(client.Stats().cross_checks, 1u);
  EXPECT_GE(client.Stats().cross_check_mismatches, 1u);

  // Control: identical replicas cross-check clean.
  LiveFleet healthy(cfg);
  FleetClient control(healthy.map, healthy.DirectConnector(), paranoid);
  auto ok = control.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(ok.ok()) << ok.message();
  EXPECT_GE(control.Stats().cross_checks, 1u);
  EXPECT_EQ(control.Stats().cross_check_mismatches, 0u);
}

TEST(FleetClientTest, CrossCheckPartnerSkipsQuarantinedReplica) {
  // Replica 1 of 3 carries misbehavior evidence. Quarantine is absolute: it
  // must receive NO traffic — not as a primary, and not as the cross-check
  // partner (which used to be the fixed (replica+1)%replicas) — while the
  // paranoid query still succeeds via the two healthy replicas.
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.replicas = 3;
  LiveFleet fleet(cfg);
  const auto& chain = Chain();

  FleetClientConfig paranoid;
  paranoid.cross_check = true;
  FleetClient client(fleet.map, fleet.DirectConnector(), paranoid);
  MisbehaviorEvidence ev;
  ev.replica = 1;
  ev.verdict = "test: simulated misbehavior";
  client.Health()->ReportMisbehavior(ev);

  std::vector<std::uint64_t> served_before;
  for (const auto& per_shard : fleet.servers) {
    served_before.push_back(per_shard[1]->Stats().served);
  }
  for (int round = 0; round < 4; ++round) {
    auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(got.ok()) << got.message();
  }
  EXPECT_GE(client.Stats().cross_checks, 4u);
  EXPECT_EQ(client.Stats().cross_check_mismatches, 0u);
  for (std::size_t s = 0; s < fleet.servers.size(); ++s) {
    EXPECT_EQ(fleet.servers[s][1]->Stats().served, served_before[s])
        << "quarantined replica of shard " << s << " received traffic";
  }
}

TEST(FleetClientTest, StaleClientRefreshesMapAndRecovers) {
  // The fleet reshards (version 2) while the client still holds version 1:
  // the first shard reply is kStaleShard, the client refreshes its map from
  // the fleet and the query succeeds without surfacing an error.
  ShardMapConfig live_cfg;
  live_cfg.version = 2;
  live_cfg.height_bands = 2;
  live_cfg.band_blocks = 4;
  LiveFleet fleet(live_cfg);
  const auto& chain = Chain();

  ShardMapConfig stale_cfg;
  stale_cfg.version = 1;  // single shard, pre-reshard view
  FleetClient client(MustCreate(stale_cfg), fleet.DirectConnector());
  auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(got.ok()) << got.message();
  EXPECT_EQ(client.Map().Version(), 2u);
  EXPECT_GE(client.Stats().map_refreshes, 1u);

  FleetClient truth(fleet.map, fleet.DirectConnector());
  auto want = truth.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(want.ok()) << want.message();
  EXPECT_EQ(got.value(), want.value());
}

TEST(FleetClientTest, TipMemoValidatesEachDistinctTipOnce) {
  // A static tip on two shards: the first query validates each shard's tip
  // in full, every later subquery only verifies its proof.
  LiveFleet fleet(TwoBandConfig(/*replicas=*/1));
  const auto& chain = Chain();
  FleetClient client(fleet.map, fleet.DirectConnector());
  for (int i = 0; i < 200; ++i) {
    auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(got.ok()) << got.message();
  }
  const auto stats = client.Stats();
  EXPECT_EQ(stats.subqueries, 400u);
  EXPECT_EQ(stats.verified, 400u);
  EXPECT_EQ(stats.tip_validations, 2u);
  EXPECT_EQ(stats.verify_failures, 0u);

  // The HistoricalMany fan-out threads share the same memo.
  std::vector<FleetClient::QuerySpec> specs;
  for (std::uint64_t from = 1; from <= chain.tip_height; ++from) {
    for (int rep = 0; rep < 8; ++rep) {
      specs.push_back({chain.hot_account, from, chain.tip_height});
    }
  }
  for (const auto& r : client.HistoricalMany(specs)) {
    ASSERT_TRUE(r.ok()) << r.message();
  }
  EXPECT_EQ(client.Stats().tip_validations, 2u);
}

TEST(FleetClientTest, HedgedAttemptsShareTheTipMemo) {
  // Two identical replicas per shard and a zero hedge delay, so secondaries
  // fire: after a warm-up (whose racing attempts may each validate), hedged
  // queries on either replica hit the memo.
  LiveFleet fleet(TwoBandConfig(/*replicas=*/2));
  const auto& chain = Chain();
  FleetClientConfig config;
  config.hedge = true;
  config.hedge_min_delay_us = 0;
  config.hedge_max_delay_us = 0;
  FleetClient client(fleet.map, fleet.DirectConnector(), config);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Historical(chain.hot_account, 1, chain.tip_height).ok());
  }
  const std::uint64_t warm = client.Stats().tip_validations;
  EXPECT_GE(warm, 2u);
  EXPECT_LE(warm, 4u);  // at most both attempts of each shard's first query
  for (int i = 0; i < 50; ++i) {
    auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(got.ok()) << got.message();
  }
  EXPECT_GT(client.Stats().hedges, 0u);
  EXPECT_EQ(client.Stats().tip_validations, warm);
  EXPECT_EQ(client.Stats().verify_failures, 0u);
}

TEST(FleetClientTest, TamperedTipRejectedAfterHonestTipIsRemembered) {
  // The replica first serves its honest tip (remembered), then the same
  // header at the same height with one certificate byte or the index digest
  // changed. Each variant misses the memo, fails full validation, and
  // quarantines the replica with evidence; a failed tip is never
  // remembered, so serving it again fails again. One shard, so every query
  // fetches exactly the one tip under test.
  struct Case {
    const char* name;
    std::function<void(svc::TipInfo&)> tamper;
    const char* verdict;
  };
  const std::vector<Case> cases = {
      {"block cert signature",
       [](svc::TipInfo& t) { t.block_cert.sig.s.limbs[0] ^= 1; },
       "block cert"},
      {"index cert signature",
       [](svc::TipInfo& t) { t.index_cert.sig.s.limbs[0] ^= 1; },
       "index cert"},
      {"index digest", [](svc::TipInfo& t) { t.index_digest[0] ^= 1; },
       "index cert"},
  };
  const auto& chain = Chain();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    LiveFleet fleet(ShardMapConfig{});
    ReplyTamper tamper;
    FleetClient client(fleet.map, TamperingConnector(fleet, &tamper));
    auto honest = client.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(honest.ok()) << honest.message();
    ASSERT_EQ(client.Stats().tip_validations, 1u);

    tamper.tip = c.tamper;
    for (std::uint64_t serve = 1; serve <= 2; ++serve) {
      auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
      EXPECT_FALSE(got.ok());
      EXPECT_EQ(client.Stats().verify_failures, serve);
      EXPECT_EQ(client.Stats().tip_validations, 1u + serve);
      EXPECT_TRUE(client.Health()->Quarantined(0));
      const auto evidence = client.Health()->Evidence();
      ASSERT_EQ(evidence.size(), serve);
      EXPECT_NE(evidence.back().verdict.find(c.verdict), std::string::npos)
          << evidence.back().verdict;
      EXPECT_FALSE(evidence.back().offending_cert.empty());
      client.Health()->Release(0);
    }

    // The honest tip is still remembered: no further validation.
    tamper.tip = nullptr;
    auto again = client.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(again.ok()) << again.message();
    EXPECT_EQ(again.value(), honest.value());
    EXPECT_EQ(client.Stats().tip_validations, 3u);
  }
}

TEST(FleetClientTest, ForgedProofRejectedAgainstRememberedTip) {
  // The tip is remembered, so a later subquery skips certificate validation
  // — but its proof is still verified against the certified digest.
  LiveFleet fleet(TwoBandConfig(/*replicas=*/1));
  const auto& chain = Chain();
  ReplyTamper tamper;
  FleetClient client(fleet.map, TamperingConnector(fleet, &tamper));
  auto honest = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(honest.ok()) << honest.message();
  ASSERT_EQ(client.Stats().tip_validations, 2u);

  tamper.proof = [](query::HistoricalQueryProof& p) { p.lower_root[0] ^= 1; };
  auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(client.Stats().tip_validations, 2u);  // the memo answered
  EXPECT_EQ(client.Stats().verify_failures, 1u);
  EXPECT_TRUE(client.Health()->Quarantined(0));
  const auto evidence = client.Health()->Evidence();
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_NE(evidence[0].verdict.find("query proof"), std::string::npos)
      << evidence[0].verdict;
}

TEST(FleetClientTest, CorruptedIndexCertIasSignatureRejected) {
  // The index certificate's report keeps its quote (the same one the block
  // certificate carries) but its IAS signature is damaged: the new bytes
  // miss the tip memo, and validation must not take the block certificate's
  // attestation for it.
  LiveFleet fleet(ShardMapConfig{});
  const auto& chain = Chain();
  ReplyTamper tamper;
  FleetClient client(fleet.map, TamperingConnector(fleet, &tamper));
  auto honest = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(honest.ok()) << honest.message();

  tamper.tip = [](svc::TipInfo& t) {
    t.index_cert.report.ias_signature.s.limbs[0] ^= 1;
  };
  auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(client.Stats().verify_failures, 1u);
  EXPECT_EQ(client.Stats().tip_validations, 2u);
  EXPECT_TRUE(client.Health()->Quarantined(0));
  const auto evidence = client.Health()->Evidence();
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_NE(evidence[0].verdict.find("index cert"), std::string::npos)
      << evidence[0].verdict;
}

TEST(FleetClientTest, ByReferenceReplyWithProofFromAnotherTipIsEvidence) {
  // The client holds and has validated the replica's tip. The replica then
  // names that tip by its key but ships a proof built one block earlier:
  // the client verifies the proof against the tip it validated under the
  // key, so the lie is caught as misbehavior, not taken as a stale reply.
  const auto& chain = Chain();
  LiveFleet fleet(ShardMapConfig{});
  LiveFleet behind(ShardMapConfig{}, 0, chain,
                   chain.announcements.size() - 1);
  std::atomic<bool> lie{false};
  FleetClient client(
      fleet.map,
      [&fleet, &behind, &lie](std::uint32_t, std::uint32_t) -> svc::Connector {
        return [&fleet, &behind, &lie] {
          return Result<std::unique_ptr<svc::ClientTransport>>(
              std::make_unique<ByReferenceLiar>(
                  fleet.transports[0][0]->Connect(),
                  behind.transports[0][0]->Connect(), &lie));
        };
      });
  auto honest = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(honest.ok()) << honest.message();
  ASSERT_EQ(client.Stats().tip_validations, 1u);

  lie = true;
  auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(client.Stats().verify_failures, 1u);
  EXPECT_EQ(client.Stats().tip_validations, 1u);  // the held tip, memoized
  EXPECT_TRUE(client.Health()->Quarantined(0));
  const auto evidence = client.Health()->Evidence();
  ASSERT_EQ(evidence.size(), 1u);
  EXPECT_NE(evidence[0].verdict.find("query proof"), std::string::npos)
      << evidence[0].verdict;

  // Told the truth again (by reference, the same held tip), the released
  // replica's answer verifies.
  lie = false;
  client.Health()->Release(0);
  auto again = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(again.ok()) << again.message();
  EXPECT_EQ(again.value(), honest.value());
  EXPECT_EQ(client.Stats().verify_failures, 1u);
}

}  // namespace
}  // namespace dcert::fleet
