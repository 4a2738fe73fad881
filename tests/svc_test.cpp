// Concurrent query-serving subsystem: SpServer behind the loopback and TCP
// transports — concurrent clients, response-cache invalidation on new
// certified blocks, admission-control shedding, graceful drain, client-side
// rejection of tampered replies, and the robustness layer: per-call
// deadlines, connection-churn lifecycle, connection caps, and a seeded
// fault-injection soak driving the retrying client.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chain/node.h"
#include "ckpt/checkpointed_issuer.h"
#include "common/rng.h"
#include "dcert/durable_issuer.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "obs/metrics.h"
#include "query/extraction.h"
#include "query/historical_index.h"
#include "svc/fault_transport.h"
#include "svc/response_cache.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/tcp_transport.h"
#include "workloads/workloads.h"

namespace dcert::svc {
namespace {

/// A small certified chain (blocks + announcements) shared by the tests, plus
/// one account known to have historical writes.
struct CertifiedChain {
  std::vector<AnnounceRequest> announcements;
  std::uint64_t hot_account = 0;
  std::uint64_t tip_height = 0;

  explicit CertifiedChain(int blocks, std::size_t txs = 6) {
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
      auto block =
          miner.MineBlock(gen.NextBlockTxs(txs), 1700000000 + node.Height() * 15);
      if (!block.ok()) throw std::runtime_error("mine: " + block.message());
      if (Status st = node.SubmitBlock(block.value()); !st) {
        throw std::runtime_error("submit: " + st.message());
      }
      auto icerts = ci.ProcessBlockHierarchical(block.value());
      if (!icerts.ok()) throw std::runtime_error("certify: " + icerts.message());
      AnnounceRequest ann;
      ann.block = block.value();
      ann.block_cert = *ci.LatestCert();
      ann.index_digest = hist->CurrentDigest();
      ann.index_cert = icerts.value()[0];
      announcements.push_back(std::move(ann));
      if (hot_account == 0) {
        auto writes = query::ExtractHistoricalWrites(block.value());
        if (!writes.empty()) hot_account = writes.front().account_word;
      }
    }
    if (hot_account == 0) {
      throw std::runtime_error("workload produced no historical writes");
    }
    tip_height = announcements.back().block.header.height;
  }
};

const CertifiedChain& Chain() {
  static CertifiedChain chain(4);
  return chain;
}

/// Announces every block of `chain` into `server`, expecting success.
void AnnounceAll(SpServer& server, const CertifiedChain& chain) {
  for (const auto& ann : chain.announcements) {
    Status st = server.Announce(ann);
    ASSERT_TRUE(st.ok()) << st.message();
  }
}

/// Validates `tip` exactly as a superlight client: block certificate, then
/// the index certificate binding. Returns the certified historical digest
/// replies must verify against.
Result<Hash256> CertifiedDigest(const TipInfo& tip) {
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  if (Status st = light.ValidateAndAccept(tip.header, tip.block_cert); !st) {
    return Result<Hash256>(st);
  }
  if (Status st = light.AcceptIndexCert(tip.header, tip.index_cert,
                                        tip.index_digest, "historical");
      !st) {
    return Result<Hash256>(st);
  }
  return *light.CertifiedIndexDigest("historical");
}

/// Fetches the tip through `client` and validates it (CertifiedDigest).
Hash256 TrustedDigest(SpClient& client) {
  auto tip = client.FetchTip();
  EXPECT_TRUE(tip.ok()) << tip.message();
  if (!tip.ok()) return Hash256{};
  auto digest = CertifiedDigest(tip.value());
  EXPECT_TRUE(digest.ok()) << digest.message();
  return digest.ok() ? digest.value() : Hash256{};
}

/// What the reply cache charges each entry on top of its payload.
constexpr std::size_t kEntryOverhead = ResponseCache::kEntryOverheadBytes;

TEST(SvcResponseCacheTest, HitsMissesEvictionsInvalidations) {
  // Two shards, each with room for two one-byte replies.
  ResponseCache cache(/*shards=*/2,
                      /*capacity_bytes=*/4 * (1 + kEntryOverhead));
  const Hash256 k1 = ResponseCache::Key(Op::kHistorical, 1, 1, 10, 10);
  const Hash256 k2 = ResponseCache::Key(Op::kHistorical, 2, 1, 10, 10);
  EXPECT_NE(k1, k2);
  // Same query at a different tip is a different key — stale hits impossible.
  EXPECT_NE(k1, ResponseCache::Key(Op::kHistorical, 1, 1, 10, 11));

  EXPECT_FALSE(cache.Lookup(k1).has_value());
  cache.Insert(k1, Bytes{0xaa});
  auto hit = cache.Lookup(k1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit.value(), Bytes{0xaa});
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().misses, 1u);

  // Overfill every shard; evictions must kick in and stats must add up.
  for (std::uint64_t a = 10; a < 30; ++a) {
    cache.Insert(ResponseCache::Key(Op::kAggregate, a, 1, 10, 10), Bytes{1});
  }
  EXPECT_GT(cache.Stats().evictions, 0u);

  cache.InvalidateAll();
  EXPECT_EQ(cache.Stats().invalidations, 1u);
  EXPECT_FALSE(cache.Lookup(k2).has_value());
}

TEST(SvcResponseCacheTest, EvictsLeastRecentlyUsedByBytes) {
  // One shard with room for 10 reply bytes in two entries: each entry is
  // charged its reply size plus kEntryOverhead.
  ResponseCache cache(/*shards=*/1,
                      /*capacity_bytes=*/10 + 2 * kEntryOverhead);
  const auto key = [](std::uint64_t a) {
    return ResponseCache::Key(Op::kHistorical, a, 1, 10, 10);
  };
  cache.Insert(key(1), Bytes(4, 0x01));
  cache.Insert(key(2), Bytes(4, 0x02));
  EXPECT_EQ(cache.Stats().bytes, 2 * (4 + kEntryOverhead));
  EXPECT_EQ(cache.Stats().evictions, 0u);
  ASSERT_TRUE(cache.Lookup(key(1)).has_value());  // key 2 is now the LRU

  // Three entries overrun the share: key 2 goes, key 1 (recently used) and
  // key 3 stay.
  cache.Insert(key(3), Bytes(4, 0x03));
  EXPECT_EQ(cache.Stats().bytes, 2 * (4 + kEntryOverhead));
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup(key(2)).has_value());
  EXPECT_TRUE(cache.Lookup(key(1)).has_value());
  EXPECT_TRUE(cache.Lookup(key(3)).has_value());

  // A reply charged the whole share evicts everything else.
  cache.Insert(key(4), Bytes(10 + kEntryOverhead, 0x04));
  EXPECT_EQ(cache.Stats().bytes, 10 + 2 * kEntryOverhead);
  EXPECT_EQ(cache.Stats().evictions, 3u);
  EXPECT_TRUE(cache.Lookup(key(4)).has_value());
}

TEST(SvcResponseCacheTest, OversizeReplyIsNotCached) {
  // Two shards with room for one 8-byte reply each: a 9-byte reply exceeds
  // a shard's share.
  ResponseCache cache(/*shards=*/2,
                      /*capacity_bytes=*/2 * (8 + kEntryOverhead));
  const Hash256 small = ResponseCache::Key(Op::kHistorical, 1, 1, 10, 10);
  const Hash256 big = ResponseCache::Key(Op::kHistorical, 2, 1, 10, 10);
  cache.Insert(small, Bytes(8, 0x01));
  cache.Insert(big, Bytes(9, 0x02));
  EXPECT_FALSE(cache.Lookup(big).has_value());
  EXPECT_TRUE(cache.Lookup(small).has_value());  // nothing was evicted for it
  EXPECT_EQ(cache.Stats().bytes, 8 + kEntryOverhead);
  EXPECT_EQ(cache.Stats().evictions, 0u);
}

TEST(SvcResponseCacheTest, InvalidateAllResetsBytes) {
  // Every shard has room for all 32 entries: nothing is evicted.
  ResponseCache cache(/*shards=*/4,
                      /*capacity_bytes=*/4 * 32 * (16 + kEntryOverhead));
  for (std::uint64_t a = 0; a < 32; ++a) {
    cache.Insert(ResponseCache::Key(Op::kAggregate, a, 1, 10, 10),
                 Bytes(16, 0xab));
  }
  EXPECT_EQ(cache.Stats().bytes, 32 * (16 + kEntryOverhead));
  cache.InvalidateAll();
  EXPECT_EQ(cache.Stats().bytes, 0u);
  // The registered gauge follows the same accounting.
  const auto snap = obs::MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snap.gauges.count("svc.cache.bytes"));
  EXPECT_EQ(snap.gauges.at("svc.cache.bytes"), 0);
  cache.Insert(ResponseCache::Key(Op::kAggregate, 99, 1, 10, 10),
               Bytes(5, 0xcd));
  EXPECT_EQ(cache.Stats().bytes, 5 + kEntryOverhead);
  EXPECT_EQ(obs::MetricsRegistry::Global().Snapshot().gauges.at(
                "svc.cache.bytes"),
            static_cast<std::int64_t>(5 + kEntryOverhead));
}

TEST(SvcResponseCacheTest, RacingReinsertKeepsByteAccountingExact) {
  // Many threads miss on the same few keys and insert replies of differing
  // sizes (a re-insert of a cached key keeps the cached reply); afterwards
  // the byte count must equal the sum of what is actually cached.
  constexpr std::uint64_t kKeys = 6;
  constexpr std::size_t kBudget = 2 * (32 + 2 * kEntryOverhead);
  ResponseCache cache(/*shards=*/2, kBudget);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::uint64_t a = static_cast<std::uint64_t>(i + t) % kKeys;
        cache.Insert(ResponseCache::Key(Op::kHistorical, a, 1, 10, 10),
                     Bytes(1 + static_cast<std::size_t>((i * 7 + t) % 12),
                           0x5a));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t cached = 0;
  for (std::uint64_t a = 0; a < kKeys; ++a) {
    auto hit = cache.Lookup(ResponseCache::Key(Op::kHistorical, a, 1, 10, 10));
    if (hit) cached += hit->size() + kEntryOverhead;
  }
  EXPECT_EQ(cache.Stats().bytes, cached);
  EXPECT_LE(cache.Stats().bytes, kBudget);
  cache.InvalidateAll();
  EXPECT_EQ(cache.Stats().bytes, 0u);
}

TEST(SvcResponseCacheTest, TinyEntriesStayWithinBudgetIncludingOverhead) {
  // Each entry is charged its payload's allocation plus the list node, map
  // node and key it costs, so a flood of one-byte payloads holds no more
  // entries than the budget pays for, and the charge adds up exactly.
  constexpr std::size_t kBudget = 64 * 1024;
  constexpr std::uint64_t kInserts = 10000;
  ResponseCache cache(/*shards=*/4, kBudget);
  const std::size_t charge = 1 + ResponseCache::kEntryOverheadBytes;
  EXPECT_GT(ResponseCache::kEntryOverheadBytes, 2 * sizeof(Hash256));
  for (std::uint64_t a = 0; a < kInserts; ++a) {
    cache.Insert(ResponseCache::Key(Op::kHistorical, a, 1, 10, 10),
                 Bytes{0x01});
  }
  const CacheStats stats = cache.Stats();
  std::uint64_t held = 0;
  for (std::uint64_t a = 0; a < kInserts; ++a) {
    if (cache.Lookup(ResponseCache::Key(Op::kHistorical, a, 1, 10, 10))) {
      ++held;
    }
  }
  EXPECT_GT(held, 0u);
  EXPECT_LE(held, kBudget / charge);
  EXPECT_EQ(stats.bytes, held * charge);
  EXPECT_LE(stats.bytes, kBudget);
  EXPECT_EQ(stats.evictions, kInserts - held);
}

/// Sends each call down whichever of two connections `*use_b` selects and
/// keeps the last reply frame.
class SwitchingTransport final : public ClientTransport {
 public:
  SwitchingTransport(std::unique_ptr<ClientTransport> a,
                     std::unique_ptr<ClientTransport> b, const bool* use_b,
                     Bytes* last_reply)
      : a_(std::move(a)), b_(std::move(b)), use_b_(use_b),
        last_reply_(last_reply) {}

  using ClientTransport::Call;
  Result<Bytes> Call(ByteView request,
                     std::chrono::milliseconds deadline) override {
    auto reply = (*use_b_ ? b_ : a_)->Call(request, deadline);
    if (reply.ok()) *last_reply_ = reply.value();
    return reply;
  }

 private:
  std::unique_ptr<ClientTransport> a_;
  std::unique_ptr<ClientTransport> b_;
  const bool* use_b_;
  Bytes* last_reply_;
};

TEST(SvcLoopbackTest, HeldTipIsNamedByKeyOnlyWhenTheServerIsAtIt) {
  // One client alternates between a server at the chain tip and one a block
  // behind. A reply names the tip by key (form 1) only when the server is at
  // the tip the client offered, and carries the full tip (form 0) otherwise;
  // every reply verifies against the tip it resolves to.
  const CertifiedChain& chain = Chain();
  SpServer at_tip(SpServerConfig{});
  SpServer behind(SpServerConfig{});
  LoopbackTransport at_tip_lb;
  LoopbackTransport behind_lb;
  ASSERT_TRUE(at_tip.Serve(at_tip_lb).ok());
  ASSERT_TRUE(behind.Serve(behind_lb).ok());
  AnnounceAll(at_tip, chain);
  for (std::size_t i = 0; i + 1 < chain.announcements.size(); ++i) {
    ASSERT_TRUE(behind.Announce(chain.announcements[i]).ok());
  }

  bool use_behind = false;
  Bytes last_reply;
  SpClient client(std::make_unique<SwitchingTransport>(
      at_tip_lb.Connect(), behind_lb.Connect(), &use_behind, &last_reply));
  struct Step {
    bool behind;
    std::uint8_t form;
  };
  const Step steps[] = {{false, 0}, {false, 1}, {true, 0},
                        {true, 1},  {false, 0}, {false, 1}};
  for (const Step& step : steps) {
    use_behind = step.behind;
    auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
    ASSERT_TRUE(r.ok()) << r.message();
    ASSERT_GT(last_reply.size(), 2u);
    EXPECT_EQ(last_reply[1], step.form) << "behind=" << step.behind;
    EXPECT_EQ(r.value().tip.header.height,
              chain.tip_height - (step.behind ? 1 : 0));
    EXPECT_EQ(r.value().tip_key, EncodeTip(r.value().tip).key);
    auto digest = CertifiedDigest(r.value().tip);
    ASSERT_TRUE(digest.ok()) << digest.message();
    EXPECT_TRUE(query::HistoricalIndex::VerifyQuery(
                    digest.value(), chain.hot_account, 1, chain.tip_height,
                    r.value().proof)
                    .ok());
  }
  at_tip.Shutdown();
  behind.Shutdown();
}

TEST(SvcLoopbackTest, ConcurrentClientsGetVerifiableProofs) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  SpClient tip_client(loopback.Connect());
  const Hash256 digest = TrustedDigest(tip_client);

  constexpr int kThreads = 6;
  constexpr int kPerThread = 20;
  std::atomic<int> verified{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SpClient client(loopback.Connect());
      Rng rng(0x7e57 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t from = rng.NextRange(1, chain.tip_height);
        if (rng.NextRange(0, 1) == 0) {
          auto r = client.Historical(chain.hot_account, from, chain.tip_height);
          if (!r.ok()) continue;
          auto v = query::HistoricalIndex::VerifyQuery(
              digest, chain.hot_account, from, chain.tip_height,
              r.value().proof);
          if (v.ok()) ++verified;
        } else {
          auto r = client.Aggregate(chain.hot_account, from, chain.tip_height);
          if (!r.ok()) continue;
          auto v = query::HistoricalIndex::VerifyAggregateQuery(
              digest, chain.hot_account, from, chain.tip_height,
              r.value().proof);
          if (v.ok()) ++verified;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Default admission bound (64) exceeds the concurrency, so nothing sheds
  // and every reply must have verified.
  EXPECT_EQ(verified.load(), kThreads * kPerThread);
  SpServerStats stats = server.Stats();
  EXPECT_GE(stats.served, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.tip_height, chain.tip_height);
  server.Shutdown();
}

TEST(SvcLoopbackTest, CacheInvalidatedOnNewCertifiedBlock) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  // Hold the last block back so we can land it mid-test.
  for (std::size_t i = 0; i + 1 < chain.announcements.size(); ++i) {
    ASSERT_TRUE(server.Announce(chain.announcements[i]).ok());
  }

  SpClient client(loopback.Connect());
  const std::uint64_t old_tip = chain.tip_height - 1;
  ASSERT_TRUE(client.Historical(chain.hot_account, 1, old_tip).ok());
  ASSERT_TRUE(client.Historical(chain.hot_account, 1, old_tip).ok());
  SpServerStats before = server.Stats();
  EXPECT_EQ(before.cache.misses, 1u);
  EXPECT_EQ(before.cache.hits, 1u);

  // New certified block: cache flushed, and the same query now regenerates
  // its proof against the new tip (a miss again).
  ASSERT_TRUE(server.Announce(chain.announcements.back()).ok());
  auto after_block = client.Historical(chain.hot_account, 1, old_tip);
  ASSERT_TRUE(after_block.ok());
  EXPECT_EQ(after_block.value().tip.header.height, chain.tip_height);
  SpServerStats after = server.Stats();
  EXPECT_GT(after.cache.invalidations, before.cache.invalidations);
  EXPECT_EQ(after.cache.misses, 2u);
  EXPECT_EQ(after.tip_height, chain.tip_height);
  server.Shutdown();
}

TEST(SvcLoopbackTest, AdmissionControlShedsWithBusy) {
  const CertifiedChain& chain = Chain();
  SpServerConfig config;
  config.workers = 1;
  config.max_queue = 1;  // one admitted request at a time
  config.debug_process_delay_ms = 100;
  SpServer server(config);
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  constexpr int kThreads = 4;
  std::atomic<int> ok{0}, busy{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      SpClient client(loopback.Connect());
      auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
      if (r.ok()) {
        ++ok;
      } else if (client.LastReplyBusy()) {
        ++busy;
      }
    });
  }
  for (auto& t : threads) t.join();
  // With a single slot and a 100ms service time, the concurrent burst cannot
  // all be admitted: at least one OK and at least one shed-with-busy.
  EXPECT_GE(ok.load(), 1);
  EXPECT_GE(busy.load(), 1);
  EXPECT_EQ(ok.load() + busy.load(), kThreads);
  EXPECT_GE(server.Stats().shed, static_cast<std::uint64_t>(busy.load()));
  server.Shutdown();
}

TEST(SvcLoopbackTest, GracefulDrainCompletesInFlightRequests) {
  const CertifiedChain& chain = Chain();
  SpServerConfig config;
  config.debug_process_delay_ms = 150;
  SpServer server(config);
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  std::atomic<bool> started{false};
  std::atomic<bool> in_flight_ok{false};
  std::thread requester([&] {
    SpClient client(loopback.Connect());
    started = true;
    auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
    in_flight_ok = r.ok();
  });
  // Let the request get admitted, then drain while it is still processing
  // (the 150ms service time leaves plenty of overlap).
  while (!started.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  server.Shutdown();
  requester.join();
  EXPECT_TRUE(in_flight_ok.load()) << "drain must complete admitted requests";

  // After shutdown the transport is stopped: new calls fail, not hang.
  SpClient late(loopback.Connect());
  auto r = late.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(r.ok());
}

/// Runs `clients` concurrent one-shot loopback queries; returns how many
/// succeeded and the wall time of the whole burst.
struct Burst {
  int ok = 0;
  std::chrono::milliseconds elapsed{0};
};
Burst RunBurst(LoopbackTransport& loopback, const CertifiedChain& chain,
               int clients) {
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&] {
      SpClient client(loopback.Connect());
      if (client.Historical(chain.hot_account, 1, chain.tip_height).ok()) ++ok;
    });
  }
  for (auto& t : threads) t.join();
  return {ok.load(), std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - t0)};
}

/// Waits until the newest SpServer's `svc.server.inflight` gauge (admitted
/// requests: waiting for a permit or executing) reads `n`.
void AwaitInflight(std::int64_t n) {
  for (int i = 0; i < 5000; ++i) {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    const auto it = snap.gauges.find("svc.server.inflight");
    if (it != snap.gauges.end() && it->second == n) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "in-flight requests never reached " << n;
}

/// Three concurrent loopback queries against a server with `workers`
/// permits, room to admit all three, and a 50 ms service time.
Burst BurstOfThree(std::size_t workers, std::uint64_t* shed) {
  const CertifiedChain& chain = Chain();
  SpServerConfig config;
  config.workers = workers;
  config.max_queue = 4;
  config.debug_process_delay_ms = 50;
  SpServer server(config);
  LoopbackTransport loopback;
  EXPECT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);
  const Burst burst = RunBurst(loopback, chain, 3);
  *shed = server.Stats().shed;
  server.Shutdown();
  return burst;
}

TEST(SvcExecutionTest, OneWorkerSerializesAdmittedRequestsWithoutShedding) {
  std::uint64_t shed = 0;
  const Burst burst = BurstOfThree(/*workers=*/1, &shed);
  EXPECT_EQ(burst.ok, 3);
  EXPECT_GE(burst.elapsed, std::chrono::milliseconds(150));
  EXPECT_EQ(shed, 0u);
}

TEST(SvcExecutionTest, TwoWorkersRunAdmittedRequestsConcurrently) {
  std::uint64_t shed = 0;
  const Burst burst = BurstOfThree(/*workers=*/2, &shed);
  EXPECT_EQ(burst.ok, 3);
  EXPECT_LT(burst.elapsed, std::chrono::milliseconds(150));
  EXPECT_EQ(shed, 0u);
}

TEST(SvcExecutionTest, ShutdownDrainsRequestsWaitingForAPermit) {
  const CertifiedChain& chain = Chain();
  SpServerConfig config;
  config.workers = 1;
  config.max_queue = 8;
  config.debug_process_delay_ms = 60;
  SpServer server(config);
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  constexpr int kClients = 4;
  std::future<Burst> burst = std::async(std::launch::async, [&] {
    return RunBurst(loopback, chain, kClients);
  });
  // One executes, three wait for the permit; drain must finish all four.
  AwaitInflight(kClients);
  server.Shutdown();
  EXPECT_EQ(burst.get().ok, kClients);
  EXPECT_EQ(server.Stats().shed, 0u);
  EXPECT_EQ(server.Stats().served, static_cast<std::uint64_t>(kClients));
}

TEST(SvcLoopbackTest, OutOfOrderAnnouncementsApplyContiguously) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());

  // Height 2 before height 1: buffered, nothing applied yet.
  ASSERT_TRUE(server.Announce(chain.announcements[1]).ok());
  EXPECT_EQ(server.Stats().blocks_applied, 0u);
  EXPECT_EQ(server.Stats().tip_height, 0u);

  // Height 1 lands: both apply contiguously.
  ASSERT_TRUE(server.Announce(chain.announcements[0]).ok());
  EXPECT_EQ(server.Stats().blocks_applied, 2u);
  EXPECT_EQ(server.Stats().tip_height, 2u);
  server.Shutdown();
}

TEST(SvcLoopbackTest, TamperedAnnouncementRejected) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());

  // A forged index digest must not pass the index-certificate binding.
  AnnounceRequest forged = chain.announcements.front();
  forged.index_digest[0] ^= 0x01;
  EXPECT_FALSE(server.Announce(forged).ok());

  // A tampered block body must not pass the block-certificate digest check.
  AnnounceRequest tampered = chain.announcements.front();
  tampered.block.header.timestamp += 1;
  EXPECT_FALSE(server.Announce(tampered).ok());

  SpServerStats stats = server.Stats();
  EXPECT_EQ(stats.announce_rejected, 2u);
  EXPECT_EQ(stats.blocks_applied, 0u);
  server.Shutdown();
}

TEST(SvcWorkflowTest, UncertifiedBlocksMoveNeitherServerNorSuperlightClient) {
  // Fig. 2 without a valid certificate: the blocks reach the SP and a
  // superlight client, but only certificates move either of them.
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  const std::size_t n = chain.announcements.size();
  for (std::size_t i = 0; i < n; ++i) {
    const AnnounceRequest& ann = chain.announcements[i];
    core::BlockCertificate unattested = ann.block_cert;
    unattested.sig = crypto::SecretKey::FromSeed(StrBytes("not-the-enclave"))
                         .Sign(unattested.digest);
    // No certificate, another block's, the index certificate in the block
    // slot, and one over this header from a key no attested enclave holds.
    const core::BlockCertificate uncertified[] = {
        core::BlockCertificate{}, chain.announcements[(i + 1) % n].block_cert,
        ann.index_cert, unattested};
    for (const core::BlockCertificate& cert : uncertified) {
      EXPECT_FALSE(light.ValidateAndAccept(ann.block.header, cert).ok())
          << "height " << ann.block.header.height;
      AnnounceRequest req = ann;
      req.block_cert = cert;
      EXPECT_FALSE(server.Announce(req).ok())
          << "height " << ann.block.header.height;
    }
  }
  EXPECT_EQ(light.Height(), 0u);
  EXPECT_FALSE(light.HasState());
  EXPECT_EQ(server.Stats().blocks_applied, 0u);
  EXPECT_EQ(server.Stats().tip_height, 0u);
  SpClient client(loopback.Connect());
  EXPECT_FALSE(client.FetchTip().ok());

  // The certified first block moves both.
  const AnnounceRequest& first = chain.announcements.front();
  ASSERT_TRUE(light.ValidateAndAccept(first.block.header, first.block_cert).ok());
  EXPECT_EQ(light.Height(), 1u);
  ASSERT_TRUE(server.Announce(first).ok());
  EXPECT_EQ(server.Stats().tip_height, 1u);
  server.Shutdown();
}

TEST(SvcTcpTest, EndToEndOverRealSocketsVerifies) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  auto conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  SpClient client(std::move(conn.value()));
  const Hash256 digest = TrustedDigest(client);

  auto hist = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(hist.ok()) << hist.message();
  auto versions = query::HistoricalIndex::VerifyQuery(
      digest, chain.hot_account, 1, chain.tip_height, hist.value().proof);
  ASSERT_TRUE(versions.ok()) << versions.message();
  EXPECT_FALSE(versions.value().empty());

  auto agg = client.Aggregate(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(agg.ok()) << agg.message();
  auto total = query::HistoricalIndex::VerifyAggregateQuery(
      digest, chain.hot_account, 1, chain.tip_height, agg.value().proof);
  ASSERT_TRUE(total.ok()) << total.message();
  EXPECT_EQ(total.value().count, versions.value().size());
  server.Shutdown();
}

TEST(SvcTcpTest, TamperedReplyRejectedByClientVerification) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  auto tip_conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(tip_conn.ok());
  SpClient tip_client(std::move(tip_conn.value()));
  const Hash256 digest = TrustedDigest(tip_client);

  // Raw round trip so we can corrupt the reply the way a malicious SP (or
  // network) would before it reaches the verifier.
  auto conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(conn.ok());
  QueryRequest q{Op::kHistorical, chain.hot_account, 1, chain.tip_height};
  auto raw = conn.value()->Call(EncodeQueryRequest(q));
  ASSERT_TRUE(raw.ok()) << raw.message();
  ASSERT_GT(raw.value().size(), 16u);

  // The proof is the last field of the reply; the carried tip precedes it.
  auto clean = DecodeReplyEnvelope(raw.value());
  ASSERT_TRUE(clean.ok());
  auto clean_body = DecodeQueryReply(clean.value().body, std::nullopt);
  ASSERT_TRUE(clean_body.ok()) << clean_body.message();
  const std::size_t proof_len = clean_body.value().proof.Serialize().size();
  ASSERT_LT(proof_len, raw.value().size());
  const std::size_t proof_at = raw.value().size() - proof_len;

  // Every single-byte corruption of the proof must be caught: either the
  // reply no longer decodes, or verification against the certified digest
  // fails. Flip a few positions spread across the proof.
  for (std::size_t pos : {proof_at + proof_len / 4, proof_at + proof_len / 2,
                          raw.value().size() - 2}) {
    Bytes tampered = raw.value();
    tampered[pos] ^= 0x01;
    auto envelope = DecodeReplyEnvelope(tampered);
    if (!envelope.ok() || envelope.value().code != Code::kOk) continue;
    auto body = DecodeQueryReply(envelope.value().body, std::nullopt);
    if (!body.ok()) continue;
    auto verified = query::HistoricalIndex::VerifyQuery(
        digest, q.account, q.from_height, q.to_height, body.value().proof);
    EXPECT_FALSE(verified.ok())
        << "tampered byte " << pos << " verified against the certified digest";
  }

  // Sanity: the untampered reply does verify.
  auto envelope = DecodeReplyEnvelope(raw.value());
  ASSERT_TRUE(envelope.ok());
  ASSERT_EQ(envelope.value().code, Code::kOk);
  auto body = DecodeQueryReply(envelope.value().body, std::nullopt);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(query::HistoricalIndex::VerifyQuery(digest, q.account,
                                                  q.from_height, q.to_height,
                                                  body.value().proof)
                  .ok());
  server.Shutdown();
}

TEST(SvcProtocolTest, QueryReplyTruncatedOrPaddedIsRejected) {
  // A query reply is a form byte, the carried tip's fields (form 0) or the
  // key of the tip the request offered (form 1), then the proof, every
  // variable field length-prefixed: for both forms any prefix of the frame
  // and the frame plus one trailing byte must fail to decode, and the whole
  // frame round-trips.
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);
  auto conn = loopback.Connect();
  const QueryRequest q{Op::kHistorical, chain.hot_account, 1,
                       chain.tip_height};

  auto decode = [](ByteView bytes,
                   const std::optional<HeldTip>& held) -> Result<QueryReply> {
    auto env = DecodeReplyEnvelope(bytes);
    if (!env.ok()) return Result<QueryReply>(env.status());
    if (env.value().code != Code::kOk) {
      return Result<QueryReply>::Error("not ok");
    }
    return DecodeQueryReply(env.value().body, held);
  };
  auto check_form = [&](const Bytes& frame,
                        const std::optional<HeldTip>& held) {
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      EXPECT_FALSE(decode(ByteView(frame.data(), cut), held).ok())
          << "cut at " << cut;
    }
    Bytes padded = frame;
    padded.push_back(0);
    EXPECT_FALSE(decode(padded, held).ok());
  };

  auto full_raw = conn->Call(EncodeQueryRequest(q));
  ASSERT_TRUE(full_raw.ok()) << full_raw.message();
  const Bytes& full = full_raw.value();
  auto whole = decode(full, std::nullopt);
  ASSERT_TRUE(whole.ok()) << whole.message();
  EXPECT_EQ(whole.value().tip.header.height, chain.tip_height);
  const EncodedTip tip = EncodeTip(whole.value().tip);
  EXPECT_EQ(whole.value().tip_key, tip.key);
  const Bytes proof = whole.value().proof.Serialize();
  EXPECT_EQ(AssembleQueryReply(tip, std::nullopt, proof), full);
  check_form(full, std::nullopt);

  // Offering the tip's key gets the by-reference form, which decodes only
  // against that held tip.
  const HeldTip held{tip.key, whole.value().tip};
  auto by_ref_raw = conn->Call(EncodeQueryRequest(q, tip.key));
  ASSERT_TRUE(by_ref_raw.ok()) << by_ref_raw.message();
  const Bytes& by_ref = by_ref_raw.value();
  EXPECT_EQ(AssembleQueryReply(tip, tip.key, proof), by_ref);
  EXPECT_EQ(by_ref.size(), 2 + Hash256::kSize + 4 + proof.size());
  auto resolved = decode(by_ref, held);
  ASSERT_TRUE(resolved.ok()) << resolved.message();
  EXPECT_EQ(resolved.value().tip, whole.value().tip);
  EXPECT_EQ(resolved.value().tip_key, tip.key);
  EXPECT_FALSE(decode(by_ref, std::nullopt).ok());
  check_form(by_ref, held);

  // A full-form reply whose fields hash to the held key resolves to the held
  // tip; the form byte is 0 or 1 and nothing else.
  auto reused = decode(full, held);
  ASSERT_TRUE(reused.ok()) << reused.message();
  EXPECT_EQ(reused.value().tip_key, tip.key);
  for (std::uint8_t form = 2; form != 0; ++form) {
    Bytes bad = by_ref;
    bad[1] = form;
    EXPECT_FALSE(decode(bad, held).ok()) << "form byte " << int{form};
  }
  server.Shutdown();
}

TEST(SvcProtocolTest, QueryRequestTipKeyIsAbsentOrExactly32Bytes) {
  const QueryRequest q{Op::kAggregate, 7, 1, 9};
  Hash256 key;
  key[0] = 0x42;
  auto plain = DecodeQueryRequest(EncodeQueryRequest(q));
  ASSERT_TRUE(plain.ok()) << plain.message();
  EXPECT_FALSE(plain.value().held_tip_key.has_value());
  EXPECT_EQ(plain.value().query.account, 7u);

  const Bytes keyed = EncodeQueryRequest(q, key);
  auto with_key = DecodeQueryRequest(keyed);
  ASSERT_TRUE(with_key.ok()) << with_key.message();
  ASSERT_TRUE(with_key.value().held_tip_key.has_value());
  EXPECT_EQ(*with_key.value().held_tip_key, key);
  EXPECT_EQ(with_key.value().query.to_height, 9u);

  // Any trailing length other than 0 or 32 bytes is malformed.
  const std::size_t base = keyed.size() - Hash256::kSize;
  for (std::size_t len = base + 1; len < keyed.size(); ++len) {
    EXPECT_FALSE(DecodeQueryRequest(ByteView(keyed.data(), len)).ok())
        << "length " << len;
  }
  Bytes padded = keyed;
  padded.push_back(0);
  EXPECT_FALSE(DecodeQueryRequest(padded).ok());
}

TEST(SvcProtocolTest, EveryByteFlipOfByReferenceReplyIsCaught) {
  // A by-reference reply is code, form, the 32-byte tip key and the proof.
  // Against the tip the client validated, every single-byte corruption must
  // fail to decode or fail verification — a flipped key names a tip the
  // client does not hold, a flipped form byte makes the key parse as tip
  // fields.
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);
  SpClient tip_client(loopback.Connect());
  auto tip = tip_client.FetchTip();
  ASSERT_TRUE(tip.ok()) << tip.message();
  auto digest = CertifiedDigest(tip.value());
  ASSERT_TRUE(digest.ok()) << digest.message();
  const EncodedTip encoded = EncodeTip(tip.value());
  const HeldTip held{encoded.key, tip.value()};

  const QueryRequest q{Op::kHistorical, chain.hot_account, 1,
                       chain.tip_height};
  auto raw = loopback.Connect()->Call(EncodeQueryRequest(q, encoded.key));
  ASSERT_TRUE(raw.ok()) << raw.message();
  const Bytes& frame = raw.value();
  auto accepted = [&](const Bytes& bytes) {
    auto env = DecodeReplyEnvelope(bytes);
    if (!env.ok() || env.value().code != Code::kOk) return false;
    auto reply = DecodeQueryReply(env.value().body, held);
    if (!reply.ok()) return false;
    return query::HistoricalIndex::VerifyQuery(digest.value(), q.account,
                                               q.from_height, q.to_height,
                                               reply.value().proof)
        .ok();
  };
  ASSERT_TRUE(accepted(frame));
  ASSERT_EQ(frame[1], 1u) << "expected the by-reference form";
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (std::uint8_t mask : {0x01, 0x80, 0xff}) {
      Bytes tampered = frame;
      tampered[pos] ^= mask;
      EXPECT_FALSE(accepted(tampered))
          << "byte " << pos << " ^ " << int{mask} << " was accepted";
    }
  }
  server.Shutdown();
}

TEST(SvcConcurrencyTest, AnnouncementsRaceQueriesSafely) {
  // Queries under shared locks race block applications under the exclusive
  // lock; run under TSan this is the data-race canary for the subsystem.
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  ASSERT_TRUE(server.Announce(chain.announcements.front()).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      SpClient client(loopback.Connect());
      while (!stop.load()) {
        auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
        // Replies may race the tip forward but must never fail outright.
        ASSERT_TRUE(r.ok()) << r.message();
      }
    });
  }
  for (std::size_t i = 1; i < chain.announcements.size(); ++i) {
    ASSERT_TRUE(server.Announce(chain.announcements[i]).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(server.Stats().tip_height, chain.tip_height);
  EXPECT_GT(server.Stats().cache.invalidations, 0u);
  server.Shutdown();
}

TEST(SvcConcurrencyTest, RepliesVerifyAgainstTheirCarriedTip) {
  // Blocks land while readers query: each reply must verify against the tip
  // it carries (no second round trip to race), and one server's tips only
  // move forward.
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  ASSERT_TRUE(server.Announce(chain.announcements.front()).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> verified{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      SpClient client(loopback.Connect());
      std::uint64_t last_tip = 0;
      for (int i = 0; !stop.load(); ++i) {
        const bool historical = (i + t) % 2 == 0;
        auto r = historical
                     ? client.Historical(chain.hot_account, 1, chain.tip_height)
                     : client.Aggregate(chain.hot_account, 1, chain.tip_height);
        ASSERT_TRUE(r.ok()) << r.message();
        const TipInfo& tip = r.value().tip;
        ASSERT_GE(tip.header.height, last_tip);
        last_tip = tip.header.height;
        auto digest = CertifiedDigest(tip);
        ASSERT_TRUE(digest.ok()) << digest.message();
        const Status st =
            historical
                ? query::HistoricalIndex::VerifyQuery(
                      digest.value(), chain.hot_account, 1, chain.tip_height,
                      r.value().proof)
                      .status()
                : query::HistoricalIndex::VerifyAggregateQuery(
                      digest.value(), chain.hot_account, 1, chain.tip_height,
                      r.value().proof)
                      .status();
        ASSERT_TRUE(st.ok()) << "tip " << tip.header.height << ": "
                             << st.message();
        verified.fetch_add(1);
      }
    });
  }
  for (std::size_t i = 1; i < chain.announcements.size(); ++i) {
    ASSERT_TRUE(server.Announce(chain.announcements[i]).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_GT(verified.load(), 0u);
  EXPECT_EQ(server.Stats().tip_height, chain.tip_height);
  server.Shutdown();
}

/// Open fds of this process (server and clients run in-process, so every
/// connection's fds are ours).
std::size_t CountOpenFds() {
  std::size_t n = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}

TEST(SvcTcpTest, SlowRequestDoesNotDelayAnotherConnection) {
  // Each connection's reader thread runs its own requests; with two permits
  // a request arriving while another connection's is mid-execution starts
  // at once instead of queueing behind it.
  const CertifiedChain& chain = Chain();
  SpServerConfig config;
  config.workers = 2;
  config.debug_process_delay_ms = 300;
  SpServer server(config);
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  auto slow_conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  auto fast_conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(slow_conn.ok() && fast_conn.ok());
  std::atomic<bool> slow_ok{false};
  std::thread slow([&] {
    SpClient client(std::move(slow_conn.value()));
    slow_ok = client.Historical(chain.hot_account, 1, chain.tip_height).ok();
  });
  AwaitInflight(1);
  SpClient fast(std::move(fast_conn.value()));
  const auto t0 = std::chrono::steady_clock::now();
  auto r = fast.Historical(chain.hot_account, 1, chain.tip_height);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  slow.join();
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_TRUE(slow_ok.load());
  // Its own 300 ms service time, not the slow request's remainder on top.
  EXPECT_LT(elapsed, std::chrono::milliseconds(450));
  server.Shutdown();
}

TEST(SvcTransportTest, LoopbackCallTimesOutOnSilentHandler) {
  LoopbackTransport loopback;
  ASSERT_TRUE(loopback.Start([](Bytes, Respond) { /* never responds */ }).ok());
  auto conn = loopback.Connect();
  const Bytes req{0x01};
  auto r = conn->Call(req, std::chrono::milliseconds(100));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTimeoutError(r.status())) << r.message();
  loopback.Stop();
}

TEST(SvcTcpTest, CallHonorsDeadlineAgainstStalledServer) {
  // A listening socket whose backlog completes handshakes but whose owner
  // never accepts, reads, or replies — the moral equivalent of a wedged SP.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  auto conn = TcpClientTransport::Connect("127.0.0.1", port);
  ASSERT_TRUE(conn.ok()) << conn.message();
  const auto t0 = std::chrono::steady_clock::now();
  auto r = conn.value()->Call(EncodeTipFetchRequest(),
                              std::chrono::milliseconds(200));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsTimeoutError(r.status())) << r.message();
  EXPECT_GE(elapsed, std::chrono::milliseconds(150));
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "deadline must bound the call";

  // After a timeout the frame stream is untrustworthy: the connection must
  // fail fast rather than risk attributing a late reply to a new request.
  auto r2 = conn.value()->Call(EncodeTipFetchRequest(),
                               std::chrono::milliseconds(200));
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(IsConnectionError(r2.status())) << r2.message();
  ::close(listen_fd);
}

TEST(SvcTcpTest, OversizedRequestRefusedWithoutDesyncingConnection) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  auto conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  Bytes huge(static_cast<std::size_t>(kMaxFrameBytes) + 1, 0x00);
  auto r = conn.value()->Call(huge, std::chrono::seconds(2));
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(IsTransientTransportError(r.status())) << r.message();

  // The cap check fired before any byte hit the wire, so the same connection
  // still serves normal traffic.
  SpClient client(std::move(conn.value()));
  EXPECT_TRUE(client.FetchTip().ok());
  server.Shutdown();
}

TEST(SvcTcpTest, ConnectionChurnLeavesFdAndThreadCountsFlat) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  const std::size_t fds_before = CountOpenFds();
  constexpr int kCycles = 1000;
  for (int i = 0; i < kCycles; ++i) {
    const bool probe = i % 50 == 0;
    if (probe) {
      // The churn can outrun the server's EOF reaper (sanitizer builds
      // especially), stacking open connections toward the cap; let it catch
      // up so the probe is not shed over-cap — that path has its own test.
      for (int w = 0; w < 2000 && tcp.Stats().open_connections > 64; ++w) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    auto conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
    ASSERT_TRUE(conn.ok()) << "cycle " << i << ": " << conn.message();
    if (probe) {
      SpClient client(std::move(conn.value()));
      ASSERT_TRUE(client.FetchTip().ok()) << "cycle " << i;
    }
    // Dropping the connection closes the client fd; the server's reader must
    // notice EOF, close its fd, and deregister without waiting for Stop().
  }
  // Wait for the server to accept the connections still in the listen
  // backlog (their clients have already closed them) and to reap them all.
  for (int i = 0; i < 500; ++i) {
    const TcpServerStats now = tcp.Stats();
    if (now.open_connections == 0 &&
        now.accepted >= static_cast<std::uint64_t>(kCycles)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  TcpServerStats stats = tcp.Stats();
  EXPECT_EQ(stats.open_connections, 0u);
  EXPECT_GE(stats.accepted, static_cast<std::uint64_t>(kCycles));
  // Allow a little slack for unrelated runtime fds, but a leak of one fd per
  // cycle (the pre-fix behavior) is three orders of magnitude past it.
  EXPECT_LE(CountOpenFds(), fds_before + 8);
  server.Shutdown();
}

TEST(SvcTcpTest, ConnectionCapShedsExcessConnections) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerConfig config;
  config.max_connections = 2;
  TcpServerTransport tcp(config);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  auto c1 = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  auto c2 = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(c1.ok() && c2.ok());
  SpClient client1(std::move(c1.value()));
  SpClient client2(std::move(c2.value()));
  ASSERT_TRUE(client1.FetchTip().ok());
  ASSERT_TRUE(client2.FetchTip().ok());

  // The third dial completes the TCP handshake (backlog) but the server
  // closes it on accept: its first call must fail, not hang.
  auto c3 = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(c3.ok()) << c3.message();
  auto r = c3.value()->Call(EncodeTipFetchRequest(), std::chrono::seconds(2));
  EXPECT_FALSE(r.ok());
  for (int i = 0; i < 200 && tcp.Stats().rejected_over_cap == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(tcp.Stats().rejected_over_cap, 1u);
  server.Shutdown();
}

// --- Framing over raw sockets ---------------------------------------------
// The wire format is a u32 little-endian length, then the payload. These
// helpers speak it over plain blocking sockets, one send and one recv per
// field, so they pin the format independently of FrameReader.

Bytes LengthPrefix(std::uint32_t n) {
  return Bytes{static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8),
               static_cast<std::uint8_t>(n >> 16),
               static_cast<std::uint8_t>(n >> 24)};
}

Bytes Frame(ByteView payload) {
  Bytes out = LengthPrefix(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void SendBytes(int fd, ByteView data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send failed";
    off += static_cast<std::size_t>(w);
  }
}

/// Sends `data` one byte per send, pausing so each byte is its own segment.
void SendByteByByte(int fd, ByteView data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    SendBytes(fd, data.subspan(i, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool RecvExactly(int fd, std::uint8_t* out, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, out, n, 0);
    if (r <= 0) return false;
    out += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Reads one frame: the prefix with one recv loop, the payload with another.
std::optional<Bytes> RecvFrame(int fd) {
  std::uint8_t len[4];
  if (!RecvExactly(fd, len, 4)) return std::nullopt;
  const std::uint32_t n = len[0] | (len[1] << 8) | (len[2] << 16) |
                          (static_cast<std::uint32_t>(len[3]) << 24);
  Bytes payload(n);
  if (n > 0 && !RecvExactly(fd, payload.data(), n)) return std::nullopt;
  return payload;
}

/// True once the peer has closed: recv reports EOF (or a reset) before the
/// socket's receive timeout.
bool PeerClosed(int fd) {
  std::uint8_t byte;
  for (;;) {
    const ssize_t r = ::recv(fd, &byte, 1, 0);
    if (r == 0) return true;
    if (r < 0) return errno == ECONNRESET;
  }
}

/// Bounds every blocking recv on `fd`, so a broken case fails instead of
/// hanging.
void SetRecvTimeout(int fd) {
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// A blocking client socket connected to 127.0.0.1:port.
int DialRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetRecvTimeout(fd);
  return fd;
}

/// A scripted peer on an ephemeral loopback port: accepts one connection and
/// runs `script` on it in its own thread. Destroy the client first, so a
/// script that ends by waiting for EOF sees it.
class FakeServer {
 public:
  explicit FakeServer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t addr_len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
            0 &&
        ::listen(listen_fd_, 4) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      SetRecvTimeout(fd);
      script(fd);
      ::close(fd);
    });
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;
  ~FakeServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept nobody dialed
    thread_.join();
    ::close(listen_fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

Bytes PatternBytes(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return out;
}

/// Resident set size of this process in KiB (VmRSS; 0 if unreadable).
std::size_t ResidentKiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib;
}

/// Verifies a raw historical-query reply frame against its carried tip.
void ExpectVerifiedHistoricalReply(const std::optional<Bytes>& frame,
                                   const CertifiedChain& chain) {
  ASSERT_TRUE(frame.has_value()) << "no reply frame";
  auto env = DecodeReplyEnvelope(*frame);
  ASSERT_TRUE(env.ok()) << env.message();
  ASSERT_EQ(env.value().code, Code::kOk) << env.value().message;
  auto reply = DecodeQueryReply(env.value().body, std::nullopt);
  ASSERT_TRUE(reply.ok()) << reply.message();
  auto digest = CertifiedDigest(reply.value().tip);
  ASSERT_TRUE(digest.ok()) << digest.message();
  auto versions = query::HistoricalIndex::VerifyQuery(
      digest.value(), chain.hot_account, 1, chain.tip_height,
      reply.value().proof);
  ASSERT_TRUE(versions.ok()) << versions.message();
  EXPECT_FALSE(versions.value().empty());
}

TEST(SvcTcpTest, FrameReaderMemoryFollowsBytesReceivedNotTheClaimedLength) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::fcntl(sv[0], F_SETFL, ::fcntl(sv[0], F_GETFL, 0) | O_NONBLOCK);
  FrameReader reader;
  auto soon = [] {
    return std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  };

  // A prefix claiming the largest legal frame, then 1 KiB, then silence.
  Bytes opening = LengthPrefix(kMaxFrameBytes);
  const Bytes kib = PatternBytes(1024, 1);
  opening.insert(opening.end(), kib.begin(), kib.end());
  SendBytes(sv[1], opening);
  Bytes frame;
  EXPECT_EQ(reader.Read(sv[0], frame, soon()),
            FrameReader::ReadResult::kTimeout);
  EXPECT_EQ(reader.Buffered(), opening.size());
  EXPECT_EQ(reader.Capacity(), FrameReader::kInitialBytes);

  // More bytes grow the buffer geometrically with what arrived: at most
  // twice the bytes held, nowhere near the 64 MiB claimed.
  SendBytes(sv[1], PatternBytes(64 << 10, 2));
  EXPECT_EQ(reader.Read(sv[0], frame, soon()),
            FrameReader::ReadResult::kTimeout);
  EXPECT_EQ(reader.Buffered(), opening.size() + (64 << 10));
  EXPECT_GE(reader.Capacity(), reader.Buffered());
  EXPECT_LE(reader.Capacity(), 2 * reader.Buffered());
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(SvcTcpTest, FrameReaderServesPipelinedFramesAndShrinksAfterALargeOne) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const Bytes large = PatternBytes(1 << 20, 3);
  const Bytes a = PatternBytes(10, 4);
  const Bytes b = PatternBytes(0, 0);
  const Bytes c = PatternBytes(300, 5);
  std::thread writer([&] {
    SendBytes(sv[1], Frame(large));
    Bytes three = Frame(a);  // pipelined: three frames in one send
    for (const Bytes* f : {&b, &c}) {
      const Bytes framed = Frame(*f);
      three.insert(three.end(), framed.begin(), framed.end());
    }
    SendBytes(sv[1], three);
    ::shutdown(sv[1], SHUT_WR);
  });
  FrameReader reader;
  Bytes frame;
  ASSERT_EQ(reader.Read(sv[0], frame), FrameReader::ReadResult::kFrame);
  EXPECT_EQ(frame, large);
  // Drained after a frame that grew it past kRetainBytes: released.
  EXPECT_LE(reader.Capacity(), FrameReader::kRetainBytes);
  for (const Bytes* want : {&a, &b, &c}) {
    ASSERT_EQ(reader.Read(sv[0], frame), FrameReader::ReadResult::kFrame);
    EXPECT_EQ(frame, *want);
    EXPECT_LE(reader.Capacity(), FrameReader::kInitialBytes);
  }
  EXPECT_EQ(reader.Buffered(), 0u);
  EXPECT_EQ(reader.Read(sv[0], frame), FrameReader::ReadResult::kClosed);
  writer.join();
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(SvcTcpTest, StalledOversizedClaimsPinNoMemoryAndVerifiedServiceGoesOn) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  // Each stalled peer claims a 64 MiB request and sends 1 KiB of it. A
  // reader that sized its buffer from the prefix would pin 64 MiB apiece.
  constexpr int kStalled = 4;
  const std::size_t rss_before = ResidentKiB();
  Bytes opening = LengthPrefix(kMaxFrameBytes);
  const Bytes kib = PatternBytes(1024, 6);
  opening.insert(opening.end(), kib.begin(), kib.end());
  std::vector<int> stalled;
  for (int i = 0; i < kStalled; ++i) {
    stalled.push_back(DialRaw(tcp.Port()));
    ASSERT_GE(stalled.back(), 0);
    SendBytes(stalled.back(), opening);
  }
  for (int i = 0; i < 500 && tcp.Stats().open_connections < kStalled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(tcp.Stats().open_connections, static_cast<std::size_t>(kStalled));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let them read

  auto conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  SpClient client(std::move(conn.value()));
  const Hash256 digest = TrustedDigest(client);
  auto hist = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(hist.ok()) << hist.message();
  auto versions = query::HistoricalIndex::VerifyQuery(
      digest, chain.hot_account, 1, chain.tip_height, hist.value().proof);
  ASSERT_TRUE(versions.ok()) << versions.message();

  // Less than a single claimed frame for all of them together.
  EXPECT_LT(ResidentKiB(), rss_before + (kMaxFrameBytes >> 10));
  for (int fd : stalled) ::close(fd);
  server.Shutdown();
}

TEST(SvcTcpTest, RequestWrittenOneByteAtATimeIsAnswered) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  const int fd = DialRaw(tcp.Port());
  ASSERT_GE(fd, 0);
  const QueryRequest q{Op::kHistorical, chain.hot_account, 1, chain.tip_height};
  SendByteByByte(fd, Frame(EncodeQueryRequest(q)));
  ExpectVerifiedHistoricalReply(RecvFrame(fd), chain);
  ::close(fd);
  server.Shutdown();
}

TEST(SvcTcpTest, PipelinedRequestFramesAreAnsweredInOrder) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  const int fd = DialRaw(tcp.Port());
  ASSERT_GE(fd, 0);
  const QueryRequest q{Op::kHistorical, chain.hot_account, 1, chain.tip_height};
  Bytes both = Frame(EncodeQueryRequest(q));
  const Bytes tip_request = Frame(EncodeTipFetchRequest());
  both.insert(both.end(), tip_request.begin(), tip_request.end());
  SendBytes(fd, both);  // two request frames in one send

  ExpectVerifiedHistoricalReply(RecvFrame(fd), chain);
  const auto second = RecvFrame(fd);
  ASSERT_TRUE(second.has_value());
  auto env = DecodeReplyEnvelope(*second);
  ASSERT_TRUE(env.ok()) << env.message();
  auto tip = DecodeTipBody(env.value().body);
  ASSERT_TRUE(tip.ok()) << tip.message();
  EXPECT_EQ(tip.value().header.height, chain.tip_height);
  ::close(fd);
  server.Shutdown();
}

TEST(SvcTcpTest, OversizedRequestPrefixClosesTheServerConnection) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  const int fd = DialRaw(tcp.Port());
  ASSERT_GE(fd, 0);
  SendBytes(fd, LengthPrefix(kMaxFrameBytes + 1));
  EXPECT_TRUE(PeerClosed(fd));
  ::close(fd);
  for (int i = 0; i < 500 && tcp.Stats().open_connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(tcp.Stats().open_connections, 0u);
  server.Shutdown();
}

TEST(SvcTcpTest, ReplyWrittenOneByteAtATimeDecodesWithinTheDeadline) {
  const Bytes request = PatternBytes(40, 7);
  const Bytes reply = PatternBytes(120, 8);
  FakeServer peer([&](int fd) {
    const auto got = RecvFrame(fd);
    EXPECT_EQ(got, std::optional<Bytes>(request));
    SendByteByByte(fd, Frame(reply));
    EXPECT_TRUE(PeerClosed(fd));
  });
  auto conn = TcpClientTransport::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  auto r = conn.value()->Call(request, std::chrono::seconds(5));
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value(), reply);
}

TEST(SvcTcpTest, OversizedReplyPrefixIsAConnectionError) {
  FakeServer peer([](int fd) {
    ASSERT_TRUE(RecvFrame(fd).has_value());
    SendBytes(fd, LengthPrefix(kMaxFrameBytes + 1));
    EXPECT_TRUE(PeerClosed(fd));
  });
  auto conn = TcpClientTransport::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  auto r = conn.value()->Call(EncodeTipFetchRequest(), std::chrono::seconds(5));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsConnectionError(r.status())) << r.message();
  auto again =
      conn.value()->Call(EncodeTipFetchRequest(), std::chrono::seconds(5));
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(IsConnectionError(again.status())) << again.message();
}

TEST(SvcTcpTest, BytesBeyondTheReplyFrameBreakTheConnection) {
  // The reply to call 1 arrives with a whole second frame behind it: a
  // client that kept those bytes would hand them to call 2 as its reply.
  const Bytes first = PatternBytes(50, 9);
  const Bytes planted = PatternBytes(50, 10);
  FakeServer peer([&](int fd) {
    ASSERT_TRUE(RecvFrame(fd).has_value());
    Bytes out = Frame(first);
    const Bytes extra = Frame(planted);
    out.insert(out.end(), extra.begin(), extra.end());
    SendBytes(fd, out);
    EXPECT_TRUE(PeerClosed(fd));
  });
  auto conn = TcpClientTransport::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  auto r = conn.value()->Call(EncodeTipFetchRequest(), std::chrono::seconds(5));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(IsConnectionError(r.status())) << r.message();
  auto again =
      conn.value()->Call(EncodeTipFetchRequest(), std::chrono::seconds(5));
  ASSERT_FALSE(again.ok()) << "returned a reply that answered another call";
  EXPECT_TRUE(IsConnectionError(again.status())) << again.message();
}

TEST(SvcTcpTest, PeersFramingPrefixAndPayloadSeparatelyInteroperate) {
  // A peer that writes and reads the prefix and the payload as separate
  // fields sees exactly `u32 little-endian length || payload`, both ways.
  const std::vector<Bytes> requests = {PatternBytes(33, 11), Bytes{},
                                       PatternBytes(5000, 12)};
  FakeServer peer([&](int fd) {
    for (const Bytes& want : requests) {
      std::uint8_t len[4];
      ASSERT_TRUE(RecvExactly(fd, len, 4));
      EXPECT_EQ(Bytes(len, len + 4),
                LengthPrefix(static_cast<std::uint32_t>(want.size())));
      Bytes got(want.size());
      ASSERT_TRUE(got.empty() || RecvExactly(fd, got.data(), got.size()));
      EXPECT_EQ(got, want);
      Bytes reply = want;
      std::reverse(reply.begin(), reply.end());
      SendBytes(fd, LengthPrefix(static_cast<std::uint32_t>(reply.size())));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (!reply.empty()) SendBytes(fd, reply);
    }
    EXPECT_TRUE(PeerClosed(fd));
  });
  {
    auto conn = TcpClientTransport::Connect("127.0.0.1", peer.port());
    ASSERT_TRUE(conn.ok()) << conn.message();
    for (const Bytes& request : requests) {
      auto r = conn.value()->Call(request, std::chrono::seconds(5));
      ASSERT_TRUE(r.ok()) << r.message();
      EXPECT_EQ(r.value(), Bytes(request.rbegin(), request.rend()));
    }
  }

  // And the server side, against a client framing the same way.
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(tcp.Start([](Bytes request, Respond respond) {
                   std::reverse(request.begin(), request.end());
                   respond(std::move(request));
                 }).ok());
  const int fd = DialRaw(tcp.Port());
  ASSERT_GE(fd, 0);
  for (const Bytes& request : requests) {
    SendBytes(fd, LengthPrefix(static_cast<std::uint32_t>(request.size())));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!request.empty()) SendBytes(fd, request);
    std::uint8_t len[4];
    ASSERT_TRUE(RecvExactly(fd, len, 4));
    EXPECT_EQ(Bytes(len, len + 4),
              LengthPrefix(static_cast<std::uint32_t>(request.size())));
    Bytes got(request.size());
    ASSERT_TRUE(got.empty() || RecvExactly(fd, got.data(), got.size()));
    EXPECT_EQ(got, Bytes(request.rbegin(), request.rend()));
  }
  ::close(fd);
  tcp.Stop();
}

TEST(SvcFaultTest, RetryingClientSurvivesBusyShedding) {
  const CertifiedChain& chain = Chain();
  SpServerConfig config;
  config.workers = 1;
  config.max_queue = 1;  // one admitted request at a time
  config.debug_process_delay_ms = 30;
  SpServer server(config);
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff = std::chrono::milliseconds(5);
  policy.max_backoff = std::chrono::milliseconds(40);
  policy.retry_budget = std::chrono::seconds(30);

  constexpr int kThreads = 4;
  std::atomic<int> ok{0};
  std::atomic<std::uint64_t> busy_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RetryPolicy p = policy;
      p.jitter_seed = 0xb0ff + static_cast<std::uint64_t>(t);
      SpClient client(
          [&loopback] {
            return Result<std::unique_ptr<ClientTransport>>(loopback.Connect());
          },
          p);
      for (int i = 0; i < 2; ++i) {
        auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
        if (r.ok()) ++ok;
      }
      busy_seen += client.Stats().busy_replies;
    });
  }
  for (auto& t : threads) t.join();
  // Where the one-shot client saw hard failures under shedding, the retrying
  // client must converge: every call eventually succeeds.
  EXPECT_EQ(ok.load(), kThreads * 2);
  EXPECT_GE(busy_seen.load(), 1u) << "shedding never fired; bound too loose";
  EXPECT_GE(server.Stats().shed, busy_seen.load());
  server.Shutdown();
}

/// Flips the first key byte of the next `*remaining` by-reference query
/// replies, so each names a tip the client did not offer.
class KeyFlippingTransport final : public ClientTransport {
 public:
  KeyFlippingTransport(std::unique_ptr<ClientTransport> inner, int* remaining)
      : inner_(std::move(inner)), remaining_(remaining) {}

  using ClientTransport::Call;
  Result<Bytes> Call(ByteView request,
                     std::chrono::milliseconds deadline) override {
    auto reply = inner_->Call(request, deadline);
    if (!reply.ok() || *remaining_ == 0) return reply;
    Bytes frame = std::move(reply.value());
    if (frame.size() > 2 && frame[0] == 0 && frame[1] == 1) {
      frame[2] ^= 0x01;
      --*remaining_;
    }
    return frame;
  }

 private:
  std::unique_ptr<ClientTransport> inner_;
  int* remaining_;
};

TEST(SvcFaultTest, ByReferenceReplyNamingAnUnofferedKeyIsRetriedNeverAccepted) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  int corrupt = 0;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(2);
  SpClient client(
      [&loopback, &corrupt] {
        return Result<std::unique_ptr<ClientTransport>>(
            std::make_unique<KeyFlippingTransport>(loopback.Connect(),
                                                   &corrupt));
      },
      policy);
  auto tip = client.FetchTip();
  ASSERT_TRUE(tip.ok()) << tip.message();
  const Hash256 key = EncodeTip(tip.value()).key;

  // Two garbled replies are retried on fresh connections; the third, naming
  // the offered key, is the one returned.
  corrupt = 2;
  auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r.value().tip_key, key);
  EXPECT_EQ(r.value().tip, tip.value());
  EXPECT_EQ(client.Stats().transport_errors, 2u);
  EXPECT_EQ(client.Stats().retries, 2u);
  EXPECT_EQ(client.Stats().reconnects, 2u);

  // As many garbled replies as attempts: the call gives up instead.
  corrupt = policy.max_attempts;
  auto garbled = client.Historical(chain.hot_account, 1, chain.tip_height);
  EXPECT_FALSE(garbled.ok());
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(client.Stats().giveups, 1u);
  EXPECT_EQ(client.Stats().transport_errors, 5u);
  server.Shutdown();
}

TEST(SvcFaultTest, SeededSoakConvergesWithZeroCorruptResultsAccepted) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);

  FaultConfig faults;
  faults.drop_rate = 0.04;
  faults.delay_rate = 0.06;
  faults.delay_ms_max = 3;
  faults.truncate_rate = 0.03;
  faults.duplicate_rate = 0.03;
  faults.corrupt_rate = 0.05;
  faults.refuse_connect_rate = 0.08;
  faults.seed = 0xD15EA5E;
  auto counters = std::make_shared<FaultCounters>();
  const std::uint16_t port = tcp.Port();
  Connector dial = FaultyConnector(
      [port] { return TcpClientTransport::Connect("127.0.0.1", port); },
      faults, counters);

  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.call_deadline = std::chrono::seconds(2);
  policy.initial_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(8);
  policy.retry_budget = std::chrono::seconds(30);
  SpClient client(dial, policy);

  // The tip must converge to the certified one through the faulty pipe; the
  // digest every accepted proof verifies against comes from that tip.
  const Hash256 digest = TrustedDigest(client);

  constexpr int kWanted = 120;
  int accepted = 0;
  std::uint64_t corrupt_rejected = 0;
  Rng workload(0x50a7);
  for (int i = 0; accepted < kWanted; ++i) {
    ASSERT_LT(i, kWanted * 4) << "soak failed to converge";
    const std::uint64_t from = workload.NextRange(1, chain.tip_height);
    auto r = client.Historical(chain.hot_account, from, chain.tip_height);
    ASSERT_TRUE(r.ok()) << "call " << i << ": " << r.message();
    auto v = query::HistoricalIndex::VerifyQuery(digest, chain.hot_account,
                                                 from, chain.tip_height,
                                                 r.value().proof);
    if (v.ok()) {
      ++accepted;  // only verification admits a reply into the result set
    } else {
      ++corrupt_rejected;  // corrupted-but-decodable reply: rejected, re-ask
    }
  }
  EXPECT_EQ(accepted, kWanted);
  // The run is only meaningful if faults actually fired and made the client
  // work for its answers.
  EXPECT_GT(counters->Total(), 0u) << "fault injector never triggered";
  const SpClientStats& cs = client.Stats();
  EXPECT_GT(cs.retries, 0u);
  EXPECT_GT(cs.reconnects, 0u);
  EXPECT_EQ(cs.calls, static_cast<std::uint64_t>(kWanted) + 1 +
                          corrupt_rejected);  // +1 for the tip fetch
  server.Shutdown();
}

/// Serves a few queries through `client`, then fetches the live metrics
/// snapshot over the same wire and checks the families the ops must have
/// moved: per-kind latency histograms, server counters, and cache traffic.
void ExerciseAndCheckStats(SpClient& client, const CertifiedChain& chain) {
  const obs::MetricsSnapshot base = obs::MetricsRegistry::Global().Snapshot();
  (void)TrustedDigest(client);
  ASSERT_TRUE(client.Historical(chain.hot_account, 1, chain.tip_height).ok());
  ASSERT_TRUE(client.Historical(chain.hot_account, 1, chain.tip_height).ok());
  ASSERT_TRUE(client.Aggregate(chain.hot_account, 1, chain.tip_height).ok());

  auto snap = client.FetchStats();
  ASSERT_TRUE(snap.ok()) << snap.message();
  const obs::MetricsSnapshot got = snap.value().DeltaFrom(base);

  // The server counted the queries we just made (tip + 2 hist + agg + the
  // stats op itself happens after the snapshot the reply was built from).
  ASSERT_TRUE(got.counters.count("svc.server.served"));
  EXPECT_GE(got.counters.at("svc.server.served"), 4u);
  // Latency histograms per query kind, with plausible contents.
  ASSERT_TRUE(got.histograms.count("svc.latency.historical_ns"));
  const obs::HistogramSnapshot& hist = got.histograms.at("svc.latency.historical_ns");
  EXPECT_GE(hist.count, 2u);
  EXPECT_GT(hist.sum, 0u);
  EXPECT_GT(hist.Quantile(0.5), 0.0);
  ASSERT_TRUE(got.histograms.count("svc.latency.aggregate_ns"));
  EXPECT_GE(got.histograms.at("svc.latency.aggregate_ns").count, 1u);
  ASSERT_TRUE(got.histograms.count("svc.latency.tip_ns"));
  // The repeated historical query hit the response cache.
  ASSERT_TRUE(got.counters.count("svc.cache.hits"));
  ASSERT_TRUE(got.counters.count("svc.cache.misses"));
  EXPECT_GE(got.counters.at("svc.cache.hits") + got.counters.at("svc.cache.misses"),
            2u);
  // Cache memory is a gauge: the cached historical and aggregate replies.
  ASSERT_TRUE(snap.value().gauges.count("svc.cache.bytes"));
  EXPECT_GT(snap.value().gauges.at("svc.cache.bytes"), 0);
  // Certification ran when the fixture chain was built, so the process-wide
  // sgx/pool families exist in the full snapshot (not necessarily the delta).
  EXPECT_TRUE(snap.value().counters.count("sgx.ecalls"));
  EXPECT_TRUE(snap.value().counters.count("common.pool.tasks_executed"));
}

TEST(SvcStatsTest, RoundTripOverLoopback) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);
  SpClient client(loopback.Connect());
  ExerciseAndCheckStats(client, chain);
  server.Shutdown();
}

TEST(SvcStatsTest, RoundTripOverTcp) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  TcpServerTransport tcp(/*port=*/0);
  ASSERT_TRUE(server.Serve(tcp).ok());
  AnnounceAll(server, chain);
  auto conn = TcpClientTransport::Connect("127.0.0.1", tcp.Port());
  ASSERT_TRUE(conn.ok()) << conn.message();
  SpClient client(std::move(conn.value()));
  ExerciseAndCheckStats(client, chain);
  // TCP frames moved in both directions for this connection.
  auto snap = client.FetchStats();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(snap.value().counters.count("net.tcp.frames_in"));
  EXPECT_GT(snap.value().counters.at("net.tcp.frames_in"), 0u);
  EXPECT_GT(snap.value().counters.at("net.tcp.bytes_in"), 0u);
  server.Shutdown();
}

TEST(SvcStatsTest, EncodeDecodeRejectsMalformedBodies) {
  // A valid reply round-trips…
  obs::MetricsRegistry reg;
  reg.GetCounter("a.b")->Add(3);
  reg.GetGauge("a.g")->Set(-7);
  reg.GetHistogram("a.h")->Record(1000);
  Bytes reply = EncodeStatsReply(reg.Snapshot());
  ASSERT_FALSE(reply.empty());
  auto env = DecodeReplyEnvelope(reply);
  ASSERT_TRUE(env.ok());
  auto snap = DecodeStatsBody(env.value().body);
  ASSERT_TRUE(snap.ok()) << snap.message();
  EXPECT_EQ(snap.value().counters.at("a.b"), 3u);
  EXPECT_EQ(snap.value().gauges.at("a.g"), -7);
  EXPECT_EQ(snap.value().histograms.at("a.h").count, 1u);

  // …while truncations at every boundary fail cleanly instead of crashing.
  for (std::size_t cut = 0; cut < env.value().body.size(); ++cut) {
    Bytes truncated(env.value().body.begin(), env.value().body.begin() + cut);
    auto bad = DecodeStatsBody(truncated);
    EXPECT_FALSE(bad.ok()) << "decoded a truncated body at " << cut;
  }
}

/// Removes a log at `path` with any rotated segments and its manifest, so a
/// test starts from an empty store whatever an earlier run left behind.
std::string FreshLogPath(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
  for (int first = 0; first < 16; ++first) {
    const std::string seg = path + ".seg." + std::to_string(first);
    std::remove(seg.c_str());
    std::remove((seg + ".idx").c_str());
  }
  return path;
}

/// Durable-issuer stores on disk for the restore tests: certifies `blocks`
/// kv-store blocks through a CheckpointedIssuer and leaves the block log,
/// cert log, sealed key and, every `ckpt_interval` blocks (0: none), a
/// checkpoint behind (the issuer itself is torn down, as after a CI
/// restart).
struct DurableStoresRig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::string block_log_path;
  std::string cert_log_path;
  std::string ckpt_dir;
  std::uint64_t hot_account = 0;
  std::uint64_t tip_height = 0;

  DurableStoresRig(const std::string& tag, int blocks,
                   std::uint64_t ckpt_interval = 0) {
    config.difficulty_bits = 2;
    registry = workloads::MakeBlockbenchRegistry(1);
    block_log_path = FreshLogPath(::testing::TempDir() + tag + "_blocks.log");
    cert_log_path = FreshLogPath(::testing::TempDir() + tag + "_certs.log");
    const std::string key_path = ::testing::TempDir() + tag + "_key.sealed";
    std::remove(key_path.c_str());
    ckpt_dir = ::testing::TempDir() + tag + "_ckpt";
    for (int h = 0; h <= blocks; ++h) {
      std::remove((ckpt_dir + "/ckpt-" + std::to_string(h) + ".dcp").c_str());
    }

    core::DurableIssuerOptions options;
    options.block_log_path = block_log_path;
    options.cert_log_path = cert_log_path;
    options.sealed_key_path = key_path;
    ckpt::CheckpointConfig ckpt;
    ckpt.dir = ckpt_dir;
    ckpt.interval = ckpt_interval;
    ckpt.keep = static_cast<std::size_t>(blocks);  // keep every checkpoint
    auto ci = ckpt::CheckpointedIssuer::Open(config, registry, options, ckpt);
    if (!ci.ok()) throw std::runtime_error("open: " + ci.message());

    chain::FullNode node(config, registry);
    chain::Miner miner(node);
    workloads::AccountPool pool(4, 91);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    params.kv_keys = 8;
    workloads::WorkloadGenerator gen(params, pool);
    for (int i = 0; i < blocks; ++i) {
      auto block =
          miner.MineBlock(gen.NextBlockTxs(6), 1700000000 + node.Height() * 15);
      if (!block.ok()) throw std::runtime_error("mine: " + block.message());
      if (Status st = node.SubmitBlock(block.value()); !st) {
        throw std::runtime_error("submit: " + st.message());
      }
      if (Status st = ci.value().CertifyBlock(block.value()); !st) {
        throw std::runtime_error("certify: " + st.message());
      }
      if (hot_account == 0) {
        auto writes = query::ExtractHistoricalWrites(block.value());
        if (!writes.empty()) hot_account = writes.front().account_word;
      }
    }
    tip_height = static_cast<std::uint64_t>(blocks);
  }

  /// The checkpoint the issuer sealed at `height`.
  ckpt::Checkpoint CheckpointAt(std::uint64_t height) const {
    auto store = ckpt::CheckpointStore::Open(ckpt_dir);
    if (!store.ok()) throw std::runtime_error("ckpt dir: " + store.message());
    auto ck = store.value().Load(height);
    if (!ck.ok()) throw std::runtime_error("ckpt load: " + ck.message());
    return ck.value();
  }
};

TEST(SvcRehydrateTest, RebuildsIndexFromDurableStoresAndServesCertifiedTip) {
  const DurableStoresRig rig("rehydrate_ok", 4);
  auto blocks = chain::BlockStore::Open(rig.block_log_path);
  auto certs = core::CertificateStore::Open(rig.cert_log_path);
  ASSERT_TRUE(blocks.ok()) << blocks.message();
  ASSERT_TRUE(certs.ok()) << certs.message();

  SpServer server(SpServerConfig{});
  const StoredChain stores{blocks.value(), certs.value()};
  ASSERT_TRUE(server.Restore(nullptr, &stores).ok());
  SpServerStats stats = server.Stats();
  EXPECT_EQ(stats.blocks_applied, rig.tip_height);
  EXPECT_EQ(stats.tip_height, rig.tip_height);

  // Restore is a bootstrap, not a merge: a second call must refuse.
  EXPECT_FALSE(server.Restore(nullptr, &stores).ok());

  // The restored tip serves and its BLOCK certificate validates exactly as a
  // superlight client would check it. The index-certificate slot holds a
  // placeholder that clients must REJECT (fail-safe: the durable stores hold
  // block certs only; certified-index trust resumes with the next live
  // announcement).
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  SpClient client(loopback.Connect());
  auto tip = client.FetchTip();
  ASSERT_TRUE(tip.ok()) << tip.message();
  EXPECT_EQ(tip.value().header.height, rig.tip_height);
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  EXPECT_TRUE(
      light.ValidateAndAccept(tip.value().header, tip.value().block_cert).ok());
  EXPECT_FALSE(light
                   .AcceptIndexCert(tip.value().header, tip.value().index_cert,
                                    tip.value().index_digest, "historical")
                   .ok());

  // The rebuilt historical index serves proofs that verify against the
  // served index digest.
  auto r = client.Historical(rig.hot_account, 1, rig.tip_height);
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_TRUE(query::HistoricalIndex::VerifyQuery(
                  tip.value().index_digest, rig.hot_account, 1, rig.tip_height,
                  r.value().proof)
                  .ok());
  server.Shutdown();
}

TEST(SvcRehydrateTest, RefusesUnreconciledOrMismatchedStores) {
  const DurableStoresRig rig("rehydrate_bad", 3);
  auto blocks = chain::BlockStore::Open(rig.block_log_path);
  ASSERT_TRUE(blocks.ok());

  // A certificate that does not bind its block (wrong digest) is rejected —
  // rehydration validates like an announcement, it does not trust the disk.
  {
    const std::string path = ::testing::TempDir() + "rehydrate_swapped_certs.log";
    std::remove(path.c_str());
    auto good = core::CertificateStore::Open(rig.cert_log_path);
    auto swapped = core::CertificateStore::Open(path);
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE(swapped.ok());
    // Cert for block 2 filed under block 1 (and vice versa).
    ASSERT_TRUE(swapped.value().Append(good.value().Get(1).value()).ok());
    ASSERT_TRUE(swapped.value().Append(good.value().Get(0).value()).ok());
    ASSERT_TRUE(swapped.value().Append(good.value().Get(2).value()).ok());
    SpServer server(SpServerConfig{});
    const StoredChain stores{blocks.value(), swapped.value()};
    EXPECT_FALSE(server.Restore(nullptr, &stores).ok());
    EXPECT_EQ(server.Stats().blocks_applied, 0u);
  }

  // Cert log more than one record behind the block log: the CI must
  // reconcile (re-certify the gap) before a server can trust the stores.
  // (Runs last: the truncation physically shortens the rig's cert log.)
  {
    auto certs = core::CertificateStore::Open(rig.cert_log_path);
    ASSERT_TRUE(certs.ok());
    ASSERT_TRUE(certs.value().TruncateTo(1).ok());
    SpServer server(SpServerConfig{});
    const StoredChain stores{blocks.value(), certs.value()};
    Status st = server.Restore(nullptr, &stores);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("reconcile"), std::string::npos) << st.message();
    EXPECT_EQ(server.Stats().blocks_applied, 0u);
  }
}

/// A block log of its own at `name` holding `blocks`, rotating a segment
/// every `segment_records` blocks (0: one file).
chain::BlockStore BlockLog(const std::string& name,
                           const std::vector<chain::Block>& blocks,
                           std::uint64_t segment_records = 0) {
  const std::string path = FreshLogPath(::testing::TempDir() + name);
  auto store = segment_records == 0
                   ? chain::BlockStore::Open(path)
                   : chain::BlockStore::Open(path, segment_records);
  if (!store.ok()) throw std::runtime_error("open: " + store.message());
  for (const chain::Block& blk : blocks) {
    if (Status st = store.value().Append(blk); !st) {
      throw std::runtime_error("append: " + st.message());
    }
  }
  return std::move(store.value());
}

/// A cert log of its own at `name` holding `certs`.
core::CertificateStore CertLog(const std::string& name,
                               const std::vector<core::BlockCertificate>& certs) {
  auto store = core::CertificateStore::Open(
      FreshLogPath(::testing::TempDir() + name));
  if (!store.ok()) throw std::runtime_error("open: " + store.message());
  for (const core::BlockCertificate& cert : certs) {
    if (Status st = store.value().Append(cert); !st) {
      throw std::runtime_error("append: " + st.message());
    }
  }
  return std::move(store.value());
}

/// One SpServer::Restore call and what it must do: succeed with `tip_height`
/// and `applied` (a checkpoint counts as one applied block) and then refuse
/// a second call, or fail naming `error` with `applied` blocks kept.
struct RestoreCase {
  std::string name;
  const ckpt::Checkpoint* ck;
  const StoredChain* stores;
  std::string error;  // empty: must succeed
  std::uint64_t tip_height = 0;
  std::uint64_t applied = 0;
};

TEST(SvcRestoreTest, EveryCheckpointAndStoresCombinationAndGuard) {
  // Six certified blocks with checkpoints sealed at heights 2, 4 and 6.
  const DurableStoresRig rig("restore_table", 6, /*ckpt_interval=*/2);
  auto blocks = chain::BlockStore::Open(rig.block_log_path);
  auto certs = core::CertificateStore::Open(rig.cert_log_path);
  ASSERT_TRUE(blocks.ok()) << blocks.message();
  ASSERT_TRUE(certs.ok()) << certs.message();
  std::vector<chain::Block> chain_blocks;  // genesis first
  for (std::uint64_t h = 0; h < blocks.value().Count(); ++h) {
    chain_blocks.push_back(blocks.value().Get(h).value());
  }
  ASSERT_EQ(chain_blocks.size(), 7u);
  std::vector<core::BlockCertificate> chain_certs;
  for (std::uint64_t i = 0; i < certs.value().Count(); ++i) {
    chain_certs.push_back(certs.value().Get(i).value());
  }
  const StoredChain stores{blocks.value(), certs.value()};
  const ckpt::Checkpoint ck2 = rig.CheckpointAt(2);
  const ckpt::Checkpoint ck4 = rig.CheckpointAt(4);

  // Stores that fail a guard.
  const chain::BlockStore empty_blocks = BlockLog("restore_empty_blocks.log", {});
  const core::CertificateStore empty_certs = CertLog("restore_empty_certs.log", {});
  const StoredChain empty{empty_blocks, empty_certs};

  const std::vector<chain::Block> to3(chain_blocks.begin(),
                                      chain_blocks.begin() + 4);
  const chain::BlockStore short_blocks = BlockLog("restore_short_blocks.log", to3);
  const StoredChain short_stores{short_blocks, certs.value()};

  // Sealed segments of two blocks; the two below height 4 are dropped.
  chain::BlockStore compacted_blocks =
      BlockLog("restore_compacted_blocks.log", chain_blocks, 2);
  ASSERT_TRUE(compacted_blocks.CompactBelow(4).ok());
  ASSERT_EQ(compacted_blocks.BaseHeight(), 4u);
  const StoredChain compacted{compacted_blocks, certs.value()};

  const std::vector<core::BlockCertificate> first4(chain_certs.begin(),
                                                   chain_certs.begin() + 4);
  const core::CertificateStore lagging_certs =
      CertLog("restore_lagging_certs.log", first4);
  const StoredChain lagging{blocks.value(), lagging_certs};

  // Another certified chain: its height-4 block is not ck4's tip.
  std::vector<chain::Block> other_blocks = {chain_blocks[0]};
  std::vector<core::BlockCertificate> other_certs;
  for (const AnnounceRequest& ann : Chain().announcements) {
    other_blocks.push_back(ann.block);
    other_certs.push_back(ann.block_cert);
  }
  const chain::BlockStore foreign_blocks =
      BlockLog("restore_foreign_blocks.log", other_blocks);
  const core::CertificateStore foreign_certs =
      CertLog("restore_foreign_certs.log", other_certs);
  const StoredChain foreign{foreign_blocks, foreign_certs};

  // Block 2 of the other chain on top of block 1 of this one.
  const chain::BlockStore broken_blocks = BlockLog(
      "restore_broken_blocks.log",
      {chain_blocks[0], chain_blocks[1], other_blocks[2]});
  const StoredChain broken{broken_blocks, certs.value()};

  std::vector<core::BlockCertificate> swapped = chain_certs;
  std::swap(swapped[0], swapped[1]);
  const core::CertificateStore swapped_certs =
      CertLog("restore_swapped_certs.log", swapped);
  const StoredChain misfiled{blocks.value(), swapped_certs};

  std::vector<core::BlockCertificate> forged = chain_certs;
  forged[0].sig = crypto::SecretKey::FromSeed(StrBytes("not-the-enclave"))
                      .Sign(forged[0].digest);
  const core::CertificateStore forged_certs =
      CertLog("restore_forged_certs.log", forged);
  const StoredChain unattested{blocks.value(), forged_certs};

  // Checkpoints that fail a guard.
  ckpt::Checkpoint ck_forged = ck4;
  ck_forged.block_cert.sig = forged[0].sig;
  ckpt::Checkpoint ck_no_index = ck4;
  ck_no_index.has_index = false;
  ckpt::Checkpoint ck_garbage = ck4;
  ck_garbage.index_content = {0xde, 0xad};
  ckpt::Checkpoint ck_wrong_digest = ck4;
  ck_wrong_digest.index_digest[0] ^= 0x01;

  const std::vector<RestoreCase> cases = {
      {"neither", nullptr, nullptr,
       "rehydrate: neither a checkpoint nor stores given"},
      {"checkpoint", &ck4, nullptr, "", 4, 1},
      {"stores", nullptr, &stores, "", 6, 6},
      {"checkpoint+stores", &ck4, &stores, "", 6, 3},
      {"checkpoint+compacted stores", &ck4, &compacted, "", 6, 3},
      {"empty stores", nullptr, &empty, "rehydrate: empty block store"},
      {"stores behind checkpoint", &ck4, &short_stores,
       "rehydrate: block store (4 blocks) is behind checkpoint height 4"},
      {"compacted stores", nullptr, &compacted,
       "rehydrate: history below height 4 was compacted; rehydrate from a "
       "checkpoint instead"},
      {"stores compacted above checkpoint", &ck2, &compacted,
       "rehydrate: log history was compacted above checkpoint height 2"},
      {"lagging certs", nullptr, &lagging,
       "rehydrate: cert store behind block store (reopen the durable issuer "
       "to reconcile first)"},
      {"checkpoint+lagging certs", &ck4, &lagging,
       "rehydrate: cert store behind block store (reopen the durable issuer "
       "to reconcile first)"},
      {"foreign stores", &ck4, &foreign,
       "rehydrate: checkpoint tip does not match the stored block at height 4"},
      {"broken chain", nullptr, &broken,
       "rehydrate: stored chain broken at height 2", 0, 1},
      {"misfiled certs", nullptr, &misfiled,
       "rehydrate: certificate does not sign stored block at height 1"},
      {"unattested cert", nullptr, &unattested, "rehydrate height 1"},
      {"forged checkpoint", &ck_forged, nullptr, "rehydrate checkpoint"},
      {"forged checkpoint+stores", &ck_forged, &stores, "rehydrate checkpoint"},
      {"checkpoint without index", &ck_no_index, nullptr,
       "rehydrate: checkpoint carries no index content"},
      {"garbage index content", &ck_garbage, nullptr,
       "rehydrate index content"},
      {"index digest not reproduced", &ck_wrong_digest, nullptr,
       "rehydrate: restored index content does not reproduce the "
       "checkpoint's certified digest"},
  };
  auto tail_gauge =
      obs::MetricsRegistry::Global().GetGauge("ci.ckpt.sp_tail_replayed");
  for (const RestoreCase& c : cases) {
    SCOPED_TRACE(c.name);
    tail_gauge->Set(-1);
    SpServer server(SpServerConfig{});
    Status st = server.Restore(c.ck, c.stores);
    if (!c.error.empty()) {
      ASSERT_FALSE(st.ok());
      EXPECT_NE(st.message().find(c.error), std::string::npos) << st.message();
      EXPECT_EQ(server.Stats().blocks_applied, c.applied);
      EXPECT_EQ(tail_gauge->Value(), -1);
      continue;
    }
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(server.Stats().tip_height, c.tip_height);
    EXPECT_EQ(server.Stats().blocks_applied, c.applied);
    // The tail gauge counts the stored blocks replayed above a checkpoint.
    EXPECT_EQ(tail_gauge->Value(),
              c.ck != nullptr && c.stores != nullptr
                  ? static_cast<std::int64_t>(c.tip_height - c.ck->height)
                  : -1);
    // A bootstrap, not a merge: whatever the sources, a second call refuses
    // and changes nothing.
    for (const RestoreCase& again : cases) {
      if (again.ck == nullptr && again.stores == nullptr) continue;
      Status second = server.Restore(again.ck, again.stores);
      ASSERT_FALSE(second.ok()) << again.name;
      EXPECT_EQ(second.message(), "rehydrate: server has already applied blocks")
          << again.name;
    }
    EXPECT_EQ(server.Stats().tip_height, c.tip_height);
    EXPECT_EQ(server.Stats().blocks_applied, c.applied);
  }
}

TEST(SvcHealthTest, HealthProbeReportsTipLoadAndBuild) {
  const CertifiedChain& chain = Chain();
  SpServer server(SpServerConfig{});
  LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  AnnounceAll(server, chain);

  SpClient client(loopback.Connect());
  // Drive some traffic first so `served` has something to count.
  ASSERT_TRUE(client.Historical(chain.hot_account, 1, chain.tip_height).ok());
  auto health = client.FetchHealth();
  ASSERT_TRUE(health.ok()) << health.message();
  EXPECT_EQ(health.value().tip_height, chain.tip_height);
  EXPECT_GE(health.value().served, 1u);
  EXPECT_EQ(health.value().shed, 0u);
  EXPECT_FALSE(health.value().build.empty());

  // The probe is monotone where it must be: uptime and served never regress.
  auto again = client.FetchHealth();
  ASSERT_TRUE(again.ok()) << again.message();
  EXPECT_GE(again.value().uptime_ms, health.value().uptime_ms);
  EXPECT_GT(again.value().served, health.value().served);

  // Encode/decode rejects malformed bodies cleanly.
  const Bytes reply = EncodeHealthReply(health.value());
  auto env = DecodeReplyEnvelope(reply);
  ASSERT_TRUE(env.ok());
  for (std::size_t cut : {std::size_t{0}, std::size_t{7}}) {
    Bytes trunc(env.value().body.begin(), env.value().body.begin() + cut);
    EXPECT_FALSE(DecodeHealthBody(trunc).ok()) << cut;
  }
  server.Shutdown();
}

TEST(SvcTcpTest, RestartUnderLoadReconnectsWithZeroCorruptAccepted) {
  // An SpServer dies mid-load and a replacement comes up on a fresh port.
  // Clients dial through a Connector reading the current port, so their
  // retry/redial machinery must carry them across the outage; every reply
  // accepted on either side of the restart must verify against the certified
  // digest.
  const CertifiedChain& chain = Chain();

  auto server = std::make_unique<SpServer>(SpServerConfig{});
  auto tcp = std::make_unique<TcpServerTransport>(/*port=*/0);
  ASSERT_TRUE(server->Serve(*tcp).ok());
  AnnounceAll(*server, chain);
  std::atomic<std::uint16_t> port{tcp->Port()};

  RetryPolicy policy;
  policy.max_attempts = 30;
  policy.call_deadline = std::chrono::seconds(2);
  policy.initial_backoff = std::chrono::milliseconds(2);
  policy.max_backoff = std::chrono::milliseconds(50);
  policy.retry_budget = std::chrono::seconds(30);

  constexpr int kThreads = 3;
  constexpr int kQueriesPerThread = 30;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<bool> restarted{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      RetryPolicy p = policy;
      p.jitter_seed = 0x4e57a47 + static_cast<std::uint64_t>(t);
      SpClient client(
          [&port] { return TcpClientTransport::Connect("127.0.0.1", port.load()); },
          p);
      const Hash256 digest = TrustedDigest(client);
      auto one_query = [&] {
        auto r = client.Historical(chain.hot_account, 1, chain.tip_height);
        if (!r.ok()) return;  // outage windows may exhaust the budget
        auto v = query::HistoricalIndex::VerifyQuery(
            digest, chain.hot_account, 1, chain.tip_height, r.value().proof);
        if (v.ok()) {
          ++accepted;
        } else {
          ++rejected;
        }
      };
      // Phase 1: keep load on the wire until the restart lands, so every
      // worker is guaranteed to straddle the outage…
      while (!restarted.load()) one_query();
      // …phase 2: the same client (same redial machinery) must then take
      // real traffic through the replacement server.
      for (int i = 0; i < kQueriesPerThread; ++i) one_query();
      reconnects += client.Stats().reconnects;
    });
  }

  // Let the load ramp, then kill and replace the server.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Shutdown();
  tcp.reset();
  server = std::make_unique<SpServer>(SpServerConfig{});
  tcp = std::make_unique<TcpServerTransport>(/*port=*/0);
  ASSERT_TRUE(server->Serve(*tcp).ok());
  AnnounceAll(*server, chain);
  port.store(tcp->Port());
  restarted.store(true);

  for (auto& w : workers) w.join();

  // The replacement took real traffic, the outage forced redials, and not a
  // single unverified reply slipped into the accepted set.
  EXPECT_TRUE(restarted.load());
  EXPECT_GT(accepted.load(), kThreads * kQueriesPerThread / 2);
  EXPECT_EQ(rejected.load(), 0);
  EXPECT_GT(reconnects.load(), 0u);
  EXPECT_GT(server->Stats().served, 0u);
  server->Shutdown();
}

}  // namespace
}  // namespace dcert::svc
