// Serving-side benchmark: an open-loop load generator drives N concurrent
// client connections against a live SpServer (loopback by default, --transport
// tcp for real sockets) with a repeated-query workload, once with the response
// cache disabled and once enabled. Requests are scheduled at a fixed offered
// rate (--rps) and assigned round-robin to the connections; a connection that
// falls behind issues its next request immediately, so measured latency is
// taken from the *scheduled* send time (coordinated-omission corrected).
// Reports throughput, p50/p95/p99 latency, shed rate (admission-control busy
// replies), and cache hit rate, and emits BENCH_serving.json with --json.
//
// The offered rate deliberately oversubscribes a small host so the comparison
// measures service capacity, not the generator: with the cache off every
// query regenerates its proof; with it on, repeated queries are served from
// the sharded LRU until a new certified block invalidates it.
//
// --fleet KxR adds the scale-out topology: K shard × R replica SpServer
// PROCESSES (re-exec'd children over TCP, each holding the full index but
// serving one key-shard), driven by shard-routed clients, against a 1x1
// single-process baseline under the same offered load — reporting fleet
// aggregate throughput, tail latency, and the scale factor. A verified
// scatter-gather pass (FleetClient) checks the fleet still only serves
// replies that survive client-side certificate + proof verification.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "fleet/fleet_client.h"
#include "fleet/shard_map.h"
#include "query/extraction.h"
#include "query/historical_index.h"
#include "svc/fault_transport.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/tcp_transport.h"

using namespace dcert;
using namespace dcert::bench;

namespace {

struct Options {
  std::size_t clients = 8;
  std::size_t requests = 4000;
  double rps = 100000.0;  // offered load (shared across all clients)
  std::string transport = "loopback";
  int blocks = 20;
  std::size_t txs = 40;
  // --fault-rate F runs the load through the seeded FaultInjectingTransport
  // (drop/delay/corrupt at F, truncate/duplicate at F/2, refused dials at F)
  // with retrying clients, measuring the robustness layer under adversity.
  double fault_rate = 0.0;
  std::uint64_t seed = 0xD0C5;
  // --obs-ab reruns the cache-enabled load with the metrics registry globally
  // disabled and re-enabled, reporting the observability overhead (the
  // acceptance budget is ≤5% throughput cost under this bench's load).
  bool obs_ab = false;
  // --hedge-ab drives a verified FleetClient against a 1-shard, 2-replica
  // in-process fleet whose second replica suffers seeded injected delays,
  // once with hedged requests off and once on, reporting the tail-latency
  // rescue plus the hedge-rate / wasted-work cost.
  bool hedge_ab = false;
  std::string json_path;
  // --fleet KxR: multi-process sharded fleet section (see header comment).
  std::string fleet;
};

struct FleetSpec {
  std::uint32_t shards = 1;
  std::uint32_t replicas = 1;
};

std::optional<FleetSpec> ParseFleetSpec(const std::string& s) {
  const std::size_t x = s.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= s.size()) {
    return std::nullopt;
  }
  char* end = nullptr;
  const unsigned long k = std::strtoul(s.c_str(), &end, 10);
  if (end != s.c_str() + x) return std::nullopt;
  const unsigned long r = std::strtoul(s.c_str() + x + 1, &end, 10);
  if (*end != '\0') return std::nullopt;
  if (k < 1 || k > 16 || r < 1 || r > 4) return std::nullopt;
  return FleetSpec{static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(r)};
}

/// One knob fans out over the individual fault kinds so a soak exercises all
/// of them; recorded verbatim in the JSON meta for reproducibility.
svc::FaultConfig MakeFaultConfig(const Options& opt, std::uint64_t stream) {
  svc::FaultConfig fc;
  fc.drop_rate = opt.fault_rate;
  fc.delay_rate = opt.fault_rate;
  fc.delay_ms_max = 3;
  fc.truncate_rate = opt.fault_rate / 2;
  fc.duplicate_rate = opt.fault_rate / 2;
  fc.corrupt_rate = opt.fault_rate;
  fc.refuse_connect_rate = opt.fault_rate;
  fc.seed = opt.seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  return fc;
}

std::uint64_t ParseU64Flag(int argc, char** argv, const std::string& name,
                           std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return std::strtoull(argv[i + 1], nullptr, 10);
  }
  return fallback;
}

std::string ParseStrFlag(int argc, char** argv, const std::string& name,
                         const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  return fallback;
}

double ParseDoubleFlag(int argc, char** argv, const std::string& name,
                       double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return std::strtod(argv[i + 1], nullptr);
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == "--" + name) return true;
  }
  return false;
}

/// One pre-mined certified chain: blocks plus their announcements, shared by
/// the cache-off and cache-on runs so both serve identical content.
struct ServingFixture {
  std::vector<svc::AnnounceRequest> announcements;
  std::vector<svc::QueryRequest> query_pool;  // repeated-query workload

  explicit ServingFixture(const Options& opt) {
    chain::ChainConfig config;
    config.difficulty_bits = 2;
    auto registry = workloads::MakeBlockbenchRegistry(1);
    core::CertificateIssuer ci(config, registry);
    auto hist = std::make_shared<query::HistoricalIndex>("historical");
    ci.AttachIndex(hist);
    chain::FullNode miner_node(config, registry);
    chain::Miner miner(miner_node);
    workloads::AccountPool pool(4, 77);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    params.kv_keys = 10;  // few accounts => many versions each => repeats
    workloads::WorkloadGenerator gen(params, pool);

    std::map<std::uint64_t, std::uint64_t> versions_per_account;
    for (int i = 0; i < opt.blocks; ++i) {
      auto block = miner.MineBlock(gen.NextBlockTxs(opt.txs),
                                   1700000000 + miner_node.Height() * 15);
      if (!block.ok()) throw std::runtime_error("mine: " + block.message());
      if (Status st = miner_node.SubmitBlock(block.value()); !st) {
        throw std::runtime_error("submit: " + st.message());
      }
      auto icerts = ci.ProcessBlockHierarchical(block.value());
      if (!icerts.ok()) {
        throw std::runtime_error("certify: " + icerts.message());
      }
      svc::AnnounceRequest ann;
      ann.block = block.value();
      ann.block_cert = *ci.LatestCert();
      ann.index_digest = hist->CurrentDigest();
      ann.index_cert = icerts.value()[0];
      announcements.push_back(std::move(ann));
      for (const query::HistEntry& e :
           query::ExtractHistoricalWrites(block.value())) {
        ++versions_per_account[e.account_word];
      }
    }

    // A small pool of distinct queries over the hottest accounts; the load
    // generator samples from it, so every query repeats many times.
    const std::uint64_t tip = announcements.back().block.header.height;
    for (const auto& [account, writes] : versions_per_account) {
      if (query_pool.size() >= 24) break;
      query_pool.push_back(
          {svc::Op::kHistorical, account, 1, tip});
      query_pool.push_back(
          {svc::Op::kHistorical, account, tip / 2 + 1, tip});
      query_pool.push_back(
          {svc::Op::kAggregate, account, 1, tip});
    }
    if (query_pool.empty()) {
      throw std::runtime_error("workload produced no historical writes");
    }
  }
};

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t failed = 0;
  double throughput = 0.0;  // OK replies per second
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double shed_rate = 0.0;
  svc::SpServerStats server;
  // Aggregated across all client threads; zero unless faults/retries fire.
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t giveups = 0;
  std::uint64_t faults_injected = 0;

  std::string Json() const {
    JsonObject o;
    o.Put("wall_s", wall_s)
        .Put("ok", ok)
        .Put("busy", busy)
        .Put("failed", failed)
        .Put("throughput_rps", throughput)
        .Put("p50_ms", p50_ms)
        .Put("p95_ms", p95_ms)
        .Put("p99_ms", p99_ms)
        .Put("shed_rate", shed_rate)
        .Put("cache_hits", server.cache.hits)
        .Put("cache_misses", server.cache.misses)
        .Put("cache_hit_rate", server.cache.HitRate())
        .Put("served", server.served)
        .Put("shed", server.shed)
        .Put("errors", server.errors)
        .Put("client_retries", retries)
        .Put("client_reconnects", reconnects)
        .Put("client_timeouts", timeouts)
        .Put("client_giveups", giveups)
        .Put("faults_injected", faults_injected);
    return o.Str();
  }
};

RunResult RunLoad(const Options& opt, const ServingFixture& fixture,
                  bool cache_enabled) {
  svc::SpServerConfig config;
  config.workers = 4;
  // Admission bound below the client count so saturation is visible as
  // shedding, not just queueing: half the connections may be in flight.
  config.max_queue = std::max<std::size_t>(1, opt.clients / 2);
  config.enable_cache = cache_enabled;
  svc::SpServer server(config);

  svc::LoopbackTransport loopback;
  svc::TcpServerTransport tcp(0);
  const bool use_tcp = opt.transport == "tcp";
  Status st = use_tcp ? server.Serve(tcp) : server.Serve(loopback);
  if (!st) throw std::runtime_error("serve: " + st.message());

  for (const auto& ann : fixture.announcements) {
    if (Status ast = server.Announce(ann); !ast) {
      throw std::runtime_error("announce: " + ast.message());
    }
  }

  // One connection per client thread, dialed lazily through a Connector so
  // the fault decorator can refuse dials and the retrying client can redial.
  auto fault_counters = std::make_shared<svc::FaultCounters>();
  const std::uint16_t tcp_port = tcp.Port();

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  const double interval_s = 1.0 / opt.rps;
  std::vector<std::vector<double>> ok_latencies(opt.clients);
  std::vector<std::uint64_t> oks(opt.clients, 0), busys(opt.clients, 0),
      fails(opt.clients, 0);
  std::vector<svc::SpClientStats> client_stats(opt.clients);
  std::atomic<Clock::duration::rep> last_done{0};

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      svc::Connector dial;
      if (use_tcp) {
        dial = [tcp_port] {
          return svc::TcpClientTransport::Connect("127.0.0.1", tcp_port);
        };
      } else {
        dial = [&loopback] {
          return Result<std::unique_ptr<svc::ClientTransport>>(
              loopback.Connect());
        };
      }
      svc::RetryPolicy policy;  // defaults: one-shot, PR 2 behavior
      if (opt.fault_rate > 0.0) {
        dial = svc::FaultyConnector(std::move(dial), MakeFaultConfig(opt, c),
                                    fault_counters);
        policy.max_attempts = 10;
        policy.call_deadline = std::chrono::seconds(5);
        policy.initial_backoff = std::chrono::milliseconds(1);
        policy.max_backoff = std::chrono::milliseconds(16);
        policy.retry_budget = std::chrono::seconds(20);
        policy.jitter_seed = opt.seed + c;
      }
      svc::SpClient client(std::move(dial), policy);
      Rng rng(0x5eed + c);
      for (std::size_t i = c; i < opt.requests; i += opt.clients) {
        const auto scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(interval_s *
                                                   static_cast<double>(i)));
        std::this_thread::sleep_until(scheduled);
        const svc::QueryRequest& q = fixture.query_pool[rng.NextRange(
            0, fixture.query_pool.size() - 1)];
        auto result =
            q.op == svc::Op::kHistorical
                ? client.Historical(q.account, q.from_height, q.to_height)
                : client.Aggregate(q.account, q.from_height, q.to_height);
        const auto done = Clock::now();
        if (result.ok()) {
          ++oks[c];
          ok_latencies[c].push_back(
              std::chrono::duration<double, std::milli>(done - scheduled)
                  .count());
        } else if (client.LastReplyBusy()) {
          ++busys[c];
        } else {
          ++fails[c];
        }
        auto rep = (done - t0).count();
        auto prev = last_done.load();
        while (rep > prev && !last_done.compare_exchange_weak(prev, rep)) {
        }
      }
      client_stats[c] = client.Stats();
    });
  }
  for (auto& t : threads) t.join();

  RunResult r;
  std::vector<double> latencies;
  for (std::size_t c = 0; c < opt.clients; ++c) {
    r.ok += oks[c];
    r.busy += busys[c];
    r.failed += fails[c];
    r.retries += client_stats[c].retries;
    r.reconnects += client_stats[c].reconnects;
    r.timeouts += client_stats[c].timeouts;
    r.giveups += client_stats[c].giveups;
    latencies.insert(latencies.end(), ok_latencies[c].begin(),
                     ok_latencies[c].end());
  }
  r.faults_injected = fault_counters->Total();
  r.wall_s = std::chrono::duration<double>(
                 Clock::duration(last_done.load()))
                 .count();
  if (r.wall_s <= 0.0) r.wall_s = 1e-9;
  r.throughput = static_cast<double>(r.ok) / r.wall_s;
  r.p50_ms = Percentile(latencies, 0.50);
  r.p95_ms = Percentile(latencies, 0.95);
  r.p99_ms = Percentile(latencies, 0.99);
  r.shed_rate = static_cast<double>(r.busy) /
                static_cast<double>(opt.requests == 0 ? 1 : opt.requests);
  r.server = server.Stats();
  server.Shutdown();
  return r;
}

/// End-to-end integrity spot check: one served reply, its carried tip
/// validated like a superlight client, its proof verified against that tip's
/// certified digest.
void VerifyServedReplies(const Options& opt, const ServingFixture& fixture) {
  svc::SpServerConfig config;
  svc::SpServer server(config);
  svc::LoopbackTransport loopback;
  if (Status st = server.Serve(loopback); !st) {
    throw std::runtime_error(st.message());
  }
  for (const auto& ann : fixture.announcements) {
    if (Status st = server.Announce(ann); !st) {
      throw std::runtime_error(st.message());
    }
  }
  svc::SpClient client(loopback.Connect());
  const svc::QueryRequest& q = fixture.query_pool.front();
  auto reply = client.Historical(q.account, q.from_height, q.to_height);
  if (!reply.ok()) throw std::runtime_error(reply.message());
  const svc::TipInfo& tip = reply.value().tip;
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  if (Status st = light.ValidateAndAccept(tip.header, tip.block_cert); !st) {
    throw std::runtime_error("tip rejected: " + st.message());
  }
  if (Status st = light.AcceptIndexCert(tip.header, tip.index_cert,
                                        tip.index_digest, "historical");
      !st) {
    throw std::runtime_error("index cert rejected: " + st.message());
  }
  auto verified = query::HistoricalIndex::VerifyQuery(
      *light.CertifiedIndexDigest("historical"), q.account, q.from_height,
      q.to_height, reply.value().proof);
  if (!verified.ok()) {
    throw std::runtime_error("served proof failed client-side verification: " +
                             verified.message());
  }
  (void)opt;
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// --fleet: multi-process sharded fleet vs. a 1x1 baseline.
// ---------------------------------------------------------------------------

/// Child mode (`--shard-server`): build the deterministic fixture (same seed
/// and chain parameters as the parent, so every process mines a byte-identical
/// chain), serve one shard of a K-shard map over TCP, print "PORT <n>" once
/// ready, and run until stdin reaches EOF (the parent closing our stdin is the
/// shutdown signal — it also works if the parent dies).
int RunShardServer(const Options& opt, std::uint32_t shard_id,
                   std::uint32_t shard_total, std::uint64_t map_version) {
  fleet::ShardMapConfig mc;
  mc.version = map_version;
  mc.key_shards = shard_total;
  auto map = fleet::ShardMap::Create(mc);
  if (!map.ok()) {
    std::fprintf(stderr, "shard-server: map: %s\n", map.message().c_str());
    return 1;
  }
  ServingFixture fixture(opt);

  svc::SpServerConfig config;
  config.workers = 4;
  config.max_queue = std::max<std::size_t>(1, opt.clients / 2);
  config.shard = map.value().AssignmentFor(shard_id);
  config.shard_map = map.value().Serialize();
  svc::SpServer server(config);
  svc::TcpServerTransport tcp(0);
  if (Status st = server.Serve(tcp); !st) {
    std::fprintf(stderr, "shard-server: serve: %s\n", st.message().c_str());
    return 1;
  }
  for (const auto& ann : fixture.announcements) {
    if (Status st = server.Announce(ann); !st) {
      std::fprintf(stderr, "shard-server: announce: %s\n",
                   st.message().c_str());
      return 1;
    }
  }
  std::printf("PORT %u\n", static_cast<unsigned>(tcp.Port()));
  std::fflush(stdout);
  char buf[64];
  while (std::fgets(buf, sizeof buf, stdin) != nullptr) {
  }
  server.Shutdown();
  return 0;
}

/// One spawned shard-server child: its pid, a write end of its stdin (closing
/// it asks the child to exit), and the TCP port it reported.
struct ShardProc {
  pid_t pid = -1;
  int stdin_w = -1;
  std::FILE* out = nullptr;
  std::uint16_t port = 0;
};

void StopShard(ShardProc& p) {
  if (p.stdin_w >= 0) {
    close(p.stdin_w);  // EOF on the child's stdin => graceful shutdown
    p.stdin_w = -1;
  }
  if (p.out != nullptr) {
    std::fclose(p.out);
    p.out = nullptr;
  }
  if (p.pid > 0) {
    int status = 0;
    waitpid(p.pid, &status, 0);
    p.pid = -1;
  }
}

/// fork+exec ourselves (`/proc/self/exe`) in shard-server mode. All load
/// threads are joined whenever this runs, so fork is safe; the child execs
/// immediately.
ShardProc SpawnShardServer(const Options& opt, std::uint32_t shard_id,
                           std::uint32_t shard_total,
                           std::uint64_t map_version) {
  int to_child[2], from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    throw std::runtime_error("pipe failed");
  }
  // Close-on-exec everywhere: without this, later-spawned siblings inherit
  // this child's stdin write end, so closing ours never delivers the EOF
  // shutdown signal (the child would outlive StopShard and waitpid would
  // hang). The child's dup2 onto fds 0/1 clears the flag on its own copies.
  for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
    fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    char exe[4096];
    const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = '\0';
    const std::vector<std::string> args = {
        exe,
        "--shard-server",
        "--shard-id",    std::to_string(shard_id),
        "--shard-total", std::to_string(shard_total),
        "--map-version", std::to_string(map_version),
        "--clients",     std::to_string(opt.clients),
        "--blocks",      std::to_string(opt.blocks),
        "--txs",         std::to_string(opt.txs),
        "--seed",        std::to_string(opt.seed),
    };
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(exe, argv.data());
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  ShardProc p;
  p.pid = pid;
  p.stdin_w = to_child[1];
  p.out = fdopen(from_child[0], "r");
  if (p.out == nullptr) {
    StopShard(p);
    throw std::runtime_error("fdopen failed");
  }
  return p;
}

/// Blocks until the child reports its port (it mines the fixture chain
/// first); EOF without a PORT line means the child failed at startup.
void AwaitPort(ShardProc& p, std::uint32_t shard_id, std::uint32_t replica) {
  char line[256];
  while (std::fgets(line, sizeof line, p.out) != nullptr) {
    unsigned port = 0;
    if (std::sscanf(line, "PORT %u", &port) == 1 && port != 0) {
      p.port = static_cast<std::uint16_t>(port);
      return;
    }
  }
  throw std::runtime_error("shard " + std::to_string(shard_id) + " replica " +
                           std::to_string(replica) +
                           " exited before reporting a port");
}

/// Same scheduled open-loop load as RunLoad, but each request is routed to
/// the shard owning its account (map.KeyShardOf) over a persistent per-thread
/// connection to one replica (round-robin per shard per request). Framing is
/// identical for baseline and fleet runs: both use shard-scoped requests.
RunResult FleetRunLoad(const Options& opt, const ServingFixture& fixture,
                       const fleet::ShardMap& map,
                       const std::vector<std::vector<std::uint16_t>>& ports) {
  const std::uint64_t version = map.Version();
  const std::uint32_t replicas = map.Replicas();
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  const double interval_s = 1.0 / opt.rps;
  std::vector<std::vector<double>> ok_latencies(opt.clients);
  std::vector<std::uint64_t> oks(opt.clients, 0), busys(opt.clients, 0),
      fails(opt.clients, 0);
  std::atomic<Clock::duration::rep> last_done{0};

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      // Lazily dialed persistent connection per (shard, replica).
      std::vector<std::vector<std::unique_ptr<svc::SpClient>>> conns(
          ports.size());
      for (auto& per_shard : conns) per_shard.resize(replicas);
      Rng rng(0x5eed + c);
      std::uint64_t seq = c;
      for (std::size_t i = c; i < opt.requests; i += opt.clients) {
        const auto scheduled =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(interval_s *
                                                   static_cast<double>(i)));
        std::this_thread::sleep_until(scheduled);
        const svc::QueryRequest& q = fixture.query_pool[rng.NextRange(
            0, fixture.query_pool.size() - 1)];
        const std::uint32_t shard = map.ShardOf(q.account, q.from_height);
        const std::uint32_t replica =
            static_cast<std::uint32_t>(seq++ % replicas);
        auto& cli = conns[shard][replica];
        if (!cli) {
          const std::uint16_t port = ports[shard][replica];
          cli = std::make_unique<svc::SpClient>(
              [port] {
                return svc::TcpClientTransport::Connect("127.0.0.1", port);
              },
              svc::RetryPolicy{});
        }
        auto result =
            q.op == svc::Op::kHistorical
                ? cli->HistoricalSharded(version, shard, q.account,
                                         q.from_height, q.to_height)
                : cli->AggregateSharded(version, shard, q.account,
                                        q.from_height, q.to_height);
        const auto done = Clock::now();
        if (result.ok()) {
          ++oks[c];
          ok_latencies[c].push_back(
              std::chrono::duration<double, std::milli>(done - scheduled)
                  .count());
        } else if (cli->LastReplyBusy()) {
          ++busys[c];
        } else {
          ++fails[c];
          cli.reset();  // drop the connection; redial on next use
        }
        auto rep = (done - t0).count();
        auto prev = last_done.load();
        while (rep > prev && !last_done.compare_exchange_weak(prev, rep)) {
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  RunResult r;
  std::vector<double> latencies;
  for (std::size_t c = 0; c < opt.clients; ++c) {
    r.ok += oks[c];
    r.busy += busys[c];
    r.failed += fails[c];
    latencies.insert(latencies.end(), ok_latencies[c].begin(),
                     ok_latencies[c].end());
  }
  r.wall_s =
      std::chrono::duration<double>(Clock::duration(last_done.load())).count();
  if (r.wall_s <= 0.0) r.wall_s = 1e-9;
  r.throughput = static_cast<double>(r.ok) / r.wall_s;
  r.p50_ms = Percentile(latencies, 0.50);
  r.p95_ms = Percentile(latencies, 0.95);
  r.p99_ms = Percentile(latencies, 0.99);
  r.shed_rate = static_cast<double>(r.busy) /
                static_cast<double>(opt.requests == 0 ? 1 : opt.requests);
  return r;
}

/// Fills the server-side fields of a fleet RunResult from the children's live
/// registries (Op::kStats per process, merged: counters sum, gauges max).
void FillFleetServerStats(RunResult& r,
                          const std::vector<std::vector<std::uint16_t>>& ports) {
  obs::MetricsSnapshot merged;
  for (const auto& per_shard : ports) {
    for (const std::uint16_t port : per_shard) {
      svc::SpClient cli(
          [port] {
            return svc::TcpClientTransport::Connect("127.0.0.1", port);
          },
          svc::RetryPolicy{});
      auto snap = cli.FetchStats();
      if (!snap.ok()) {
        throw std::runtime_error("fleet stats fetch: " + snap.message());
      }
      merged.MergeFrom(snap.value());
    }
  }
  const auto counter = [&merged](const char* name) -> std::uint64_t {
    auto it = merged.counters.find(name);
    return it == merged.counters.end() ? 0 : it->second;
  };
  r.server.served = counter("svc.server.served");
  r.server.shed = counter("svc.server.shed");
  r.server.errors = counter("svc.server.errors");
  r.server.cache.hits = counter("svc.cache.hits");
  r.server.cache.misses = counter("svc.cache.misses");
}

/// Verified scatter-gather spot check against the live fleet: a FleetClient
/// (cross-checking replicas when there are >=2) must verify every query in
/// the fixture pool; any reply that fails certificate/proof verification
/// fails the bench.
void VerifyFleetReplies(const ServingFixture& fixture,
                        const fleet::ShardMap& map,
                        const std::vector<std::vector<std::uint16_t>>& ports) {
  fleet::FleetClientConfig fc;
  fc.cross_check = map.Replicas() >= 2;
  fleet::FleetClient client(
      map,
      [&ports](std::uint32_t shard, std::uint32_t replica) -> svc::Connector {
        const std::uint16_t port = ports[shard][replica];
        return [port] {
          return svc::TcpClientTransport::Connect("127.0.0.1", port);
        };
      },
      fc);
  for (const svc::QueryRequest& q : fixture.query_pool) {
    if (q.op == svc::Op::kHistorical) {
      auto got = client.Historical(q.account, q.from_height, q.to_height);
      if (!got.ok()) {
        throw std::runtime_error("fleet scatter-gather verify: " +
                                 got.message());
      }
    } else {
      auto got = client.Aggregate(q.account, q.from_height, q.to_height);
      if (!got.ok()) {
        throw std::runtime_error("fleet scatter-gather verify: " +
                                 got.message());
      }
    }
  }
  const auto stats = client.Stats();
  if (stats.verified == 0 || stats.giveups != 0) {
    throw std::runtime_error("fleet scatter-gather verify: no verified replies");
  }
  std::printf("fleet scatter-gather: %llu/%llu subqueries verified "
              "client-side (%llu cross-checks, %llu mismatches)\n",
              static_cast<unsigned long long>(stats.verified),
              static_cast<unsigned long long>(stats.subqueries),
              static_cast<unsigned long long>(stats.cross_checks),
              static_cast<unsigned long long>(stats.cross_check_mismatches));
}

/// Runs the baseline (1x1) and the K x R fleet under the same offered load
/// and returns the JSON section. Both topologies use shard-scoped framing and
/// re-exec'd TCP server processes, so the only variable is the topology.
std::string RunFleetSection(const Options& opt, const ServingFixture& fixture,
                            const FleetSpec& spec) {
  const std::uint32_t K = spec.shards;
  const std::uint32_t R = spec.replicas;
  std::printf("\nfleet: spawning 1x1 baseline + %ux%u shard server "
              "processes (each mines the fixture chain first)...\n",
              static_cast<unsigned>(K), static_cast<unsigned>(R));

  // Baseline: one server process owning the whole key space (map version 1,
  // total 1 — still sharded framing, so requests are byte-identical).
  fleet::ShardMapConfig base_cfg;
  base_cfg.version = 1;
  auto base_map = fleet::ShardMap::Create(base_cfg);
  if (!base_map.ok()) throw std::runtime_error(base_map.message());
  ShardProc base_proc = SpawnShardServer(opt, 0, 1, base_cfg.version);
  RunResult baseline;
  try {
    AwaitPort(base_proc, 0, 0);
    const std::vector<std::vector<std::uint16_t>> base_ports = {
        {base_proc.port}};
    baseline = FleetRunLoad(opt, fixture, base_map.value(), base_ports);
    FillFleetServerStats(baseline, base_ports);
  } catch (...) {
    StopShard(base_proc);
    throw;
  }
  StopShard(base_proc);

  // Fleet: K shards x R replicas. Spawned sequentially — each child mines
  // the same deterministic chain, and on a small host parallel mining just
  // thrashes; ports are collected as children come up.
  fleet::ShardMapConfig fleet_cfg;
  fleet_cfg.version = 2;  // a different version than the baseline map
  fleet_cfg.key_shards = K;
  fleet_cfg.replicas = R;
  auto fleet_map = fleet::ShardMap::Create(fleet_cfg);
  if (!fleet_map.ok()) throw std::runtime_error(fleet_map.message());
  std::vector<ShardProc> procs;
  RunResult fleet_run;
  try {
    std::vector<std::vector<std::uint16_t>> ports(K);
    for (std::uint32_t s = 0; s < K; ++s) {
      for (std::uint32_t rep = 0; rep < R; ++rep) {
        procs.push_back(SpawnShardServer(opt, s, K, fleet_cfg.version));
        AwaitPort(procs.back(), s, rep);
        ports[s].push_back(procs.back().port);
      }
    }
    fleet_run = FleetRunLoad(opt, fixture, fleet_map.value(), ports);
    VerifyFleetReplies(fixture, fleet_map.value(), ports);
    FillFleetServerStats(fleet_run, ports);
  } catch (...) {
    for (auto& p : procs) StopShard(p);
    throw;
  }
  for (auto& p : procs) StopShard(p);

  const double scale = baseline.throughput > 0
                           ? fleet_run.throughput / baseline.throughput
                           : 0.0;
  std::printf("\n%9s | %9s %8s %8s %8s | %7s\n", "fleet", "tput r/s", "p50 ms",
              "p95 ms", "p99 ms", "shed");
  std::printf("----------+------------------------------------------+--------\n");
  std::printf("%9s | %9.0f %8.2f %8.2f %8.2f | %6.1f%%\n", "1x1 base",
              baseline.throughput, baseline.p50_ms, baseline.p95_ms,
              baseline.p99_ms, 100.0 * baseline.shed_rate);
  std::printf("%7ux%1u | %9.0f %8.2f %8.2f %8.2f | %6.1f%%\n",
              static_cast<unsigned>(K), static_cast<unsigned>(R),
              fleet_run.throughput, fleet_run.p50_ms, fleet_run.p95_ms,
              fleet_run.p99_ms, 100.0 * fleet_run.shed_rate);
  std::printf("fleet scale factor: %.2fx over the single-process baseline "
              "(%u host cores — CPU-bound shards cannot scale past the "
              "core count)\n",
              scale, std::thread::hardware_concurrency());

  JsonObject fo;
  fo.Put("shards", static_cast<std::uint64_t>(K))
      .Put("replicas", static_cast<std::uint64_t>(R))
      .Put("processes", static_cast<std::uint64_t>(K * R))
      .PutRaw("baseline_1x1", baseline.Json())
      .PutRaw("fleet", fleet_run.Json())
      .Put("scale_factor", scale);
  return fo.Str();
}

// ---------------------------------------------------------------------------
// --hedge-ab: hedged requests vs. a straggling replica.
// ---------------------------------------------------------------------------

struct HedgeArm {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  fleet::FleetClientStats stats;

  std::string Json() const {
    JsonObject o;
    o.Put("ok", ok)
        .Put("failed", failed)
        .Put("p50_ms", p50_ms)
        .Put("p95_ms", p95_ms)
        .Put("p99_ms", p99_ms)
        .Put("hedges", stats.hedges)
        .Put("hedge_wins", stats.hedge_wins)
        .Put("hedge_wasted", stats.hedge_wasted)
        .Put("breaker_skips", stats.breaker_skips)
        .Put("verified", stats.verified);
    return o.Str();
  }
};

/// A/B of hedged requests: a 1-shard x 2-replica in-process fleet where
/// replica 1's wire suffers seeded delays (no corruption — this measures the
/// latency policy, not quarantine). Round-robin replica choice means roughly
/// half the queries pick the straggler as primary; with hedging on, those
/// queries launch a secondary on the clean replica after an adaptive delay
/// and the first *verified* reply wins, so the straggler's delays should
/// vanish from the hedged tail while hedge_wasted quantifies the extra work.
std::string RunHedgeAbSection(const Options& opt,
                              const ServingFixture& fixture) {
  fleet::ShardMapConfig mc;
  mc.version = 1;
  mc.key_shards = 1;
  mc.replicas = 2;
  auto map = fleet::ShardMap::Create(mc);
  if (!map.ok()) throw std::runtime_error(map.message());

  std::vector<std::unique_ptr<svc::LoopbackTransport>> transports;
  std::vector<std::unique_ptr<svc::SpServer>> servers;
  for (std::uint32_t r = 0; r < 2; ++r) {
    svc::SpServerConfig config;
    config.workers = 4;
    config.shard = map.value().AssignmentFor(0);
    config.shard_map = map.value().Serialize();
    auto server = std::make_unique<svc::SpServer>(config);
    auto transport = std::make_unique<svc::LoopbackTransport>();
    if (Status st = server->Serve(*transport); !st) {
      throw std::runtime_error("hedge-ab serve: " + st.message());
    }
    for (const auto& ann : fixture.announcements) {
      if (Status st = server->Announce(ann); !st) {
        throw std::runtime_error("hedge-ab announce: " + st.message());
      }
    }
    transports.push_back(std::move(transport));
    servers.push_back(std::move(server));
  }

  auto fault_counters = std::make_shared<svc::FaultCounters>();
  auto backends = [&](std::uint32_t, std::uint32_t r) -> svc::Connector {
    svc::LoopbackTransport* lb = transports[r].get();
    svc::Connector dial = [lb] {
      return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
    };
    if (r == 1) {
      svc::FaultConfig fc;
      fc.delay_rate = 0.25;
      fc.delay_ms_max = 30;
      fc.seed = opt.seed ^ 0x4ed6e;
      dial = svc::FaultyConnector(std::move(dial), fc, fault_counters);
    }
    return dial;
  };

  const std::size_t kQueries = std::min<std::size_t>(opt.requests, 400);
  const auto run_arm = [&](bool hedge) {
    fleet::FleetClientConfig fc;
    fc.hedge = hedge;
    fc.hedge_min_delay_us = 200;
    // Cap the adaptive delay well below the straggler's worst case so the
    // hedge fires while the primary is still stuck in the injected sleep.
    fc.hedge_max_delay_us = 5000;
    fleet::FleetClient client(map.value(), backends, fc);
    HedgeArm arm;
    std::vector<double> latencies;
    Rng rng(0x5eed);
    using Clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < kQueries; ++i) {
      const svc::QueryRequest& q = fixture.query_pool[rng.NextRange(
          0, fixture.query_pool.size() - 1)];
      const auto t0 = Clock::now();
      bool ok;
      if (q.op == svc::Op::kHistorical) {
        ok = client.Historical(q.account, q.from_height, q.to_height).ok();
      } else {
        ok = client.Aggregate(q.account, q.from_height, q.to_height).ok();
      }
      const auto t1 = Clock::now();
      if (ok) {
        ++arm.ok;
        latencies.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      } else {
        ++arm.failed;
      }
    }
    arm.p50_ms = Percentile(latencies, 0.50);
    arm.p95_ms = Percentile(latencies, 0.95);
    arm.p99_ms = Percentile(latencies, 0.99);
    arm.stats = client.Stats();
    return arm;
  };

  // Same seeded workload and the same seeded delay schedule per arm: the
  // FaultyConnector re-derives per-connection fault streams from fc.seed, so
  // the straggler misbehaves identically with hedging off and on.
  const HedgeArm off = run_arm(false);
  const HedgeArm on = run_arm(true);
  for (auto& server : servers) server->Shutdown();

  std::printf("\nhedged requests A/B (1x2 fleet, replica 1 delayed at rate "
              "0.25 up to 30 ms, %zu verified queries per arm):\n",
              kQueries);
  std::printf("%9s | %8s %8s %8s | %7s %7s %7s\n", "hedge", "p50 ms", "p95 ms",
              "p99 ms", "hedges", "wins", "wasted");
  std::printf("----------+----------------------------+------------------------\n");
  for (const auto* a : {&off, &on}) {
    std::printf("%9s | %8.2f %8.2f %8.2f | %7llu %7llu %7llu\n",
                a == &off ? "off" : "on", a->p50_ms, a->p95_ms, a->p99_ms,
                static_cast<unsigned long long>(a->stats.hedges),
                static_cast<unsigned long long>(a->stats.hedge_wins),
                static_cast<unsigned long long>(a->stats.hedge_wasted));
  }
  const double rescue =
      off.p99_ms > 0 ? (off.p99_ms - on.p99_ms) / off.p99_ms : 0.0;
  const double hedge_rate =
      on.stats.subqueries > 0 ? static_cast<double>(on.stats.hedges) /
                                    static_cast<double>(on.stats.subqueries)
                              : 0.0;
  std::printf("hedging cut p99 by %.0f%% (hedge rate %.1f%%, %llu wasted "
              "replies; every accepted reply verified client-side)\n",
              100.0 * rescue, 100.0 * hedge_rate,
              static_cast<unsigned long long>(on.stats.hedge_wasted));

  JsonObject o;
  o.Put("queries_per_arm", static_cast<std::uint64_t>(kQueries))
      .Put("delay_rate", 0.25)
      .Put("delay_ms_max", static_cast<std::uint64_t>(30))
      .PutRaw("hedge_off", off.Json())
      .PutRaw("hedge_on", on.Json())
      .Put("p99_rescue", rescue)
      .Put("hedge_rate", hedge_rate)
      .Put("faults_injected", fault_counters->Total());
  return o.Str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.json_path = ParseJsonPath(argc, argv);
  opt.clients = ParseU64Flag(argc, argv, "clients", opt.clients);
  opt.requests = ParseU64Flag(argc, argv, "requests", opt.requests);
  opt.rps = static_cast<double>(
      ParseU64Flag(argc, argv, "rps", static_cast<std::uint64_t>(opt.rps)));
  opt.transport = ParseStrFlag(argc, argv, "transport", opt.transport);
  opt.blocks = static_cast<int>(ParseU64Flag(argc, argv, "blocks",
                                             static_cast<std::uint64_t>(opt.blocks)));
  opt.txs = ParseU64Flag(argc, argv, "txs", opt.txs);
  opt.fault_rate = ParseDoubleFlag(argc, argv, "fault-rate", opt.fault_rate);
  opt.seed = ParseU64Flag(argc, argv, "seed", opt.seed);
  opt.obs_ab = HasFlag(argc, argv, "obs-ab");
  opt.hedge_ab = HasFlag(argc, argv, "hedge-ab");
  opt.fleet = ParseStrFlag(argc, argv, "fleet", opt.fleet);

  // Hidden child mode: we were re-exec'd by a --fleet parent to serve one
  // shard. Options above are already parsed from the forwarded flags.
  if (HasFlag(argc, argv, "shard-server")) {
    try {
      return RunShardServer(
          opt,
          static_cast<std::uint32_t>(ParseU64Flag(argc, argv, "shard-id", 0)),
          static_cast<std::uint32_t>(
              ParseU64Flag(argc, argv, "shard-total", 1)),
          ParseU64Flag(argc, argv, "map-version", 1));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shard-server: %s\n", e.what());
      return 1;
    }
  }

  std::optional<FleetSpec> fleet_spec;
  if (!opt.fleet.empty()) {
    fleet_spec = ParseFleetSpec(opt.fleet);
    if (!fleet_spec) {
      std::fprintf(stderr,
                   "bad --fleet %s (want KxR, 1<=K<=16, 1<=R<=4)\n",
                   opt.fleet.c_str());
      return 2;
    }
  }
  if (opt.clients == 0 || opt.requests == 0 || opt.rps <= 0.0 ||
      opt.fault_rate < 0.0 || opt.fault_rate >= 1.0 ||
      (opt.transport != "loopback" && opt.transport != "tcp")) {
    std::fprintf(stderr,
                 "usage: bench_serving [--clients N] [--requests N] [--rps R]\n"
                 "                     [--transport loopback|tcp] [--blocks B]\n"
                 "                     [--txs T] [--fault-rate F] [--seed S]\n"
                 "                     [--obs-ab] [--hedge-ab] [--fleet KxR]\n"
                 "                     [--json path]\n");
    return 2;
  }
  const MetricsDelta metrics_delta;

  PrintHeader("Serving", "SP server under concurrent client load");
  PrintParams(std::to_string(opt.clients) + " clients, " +
              std::to_string(opt.requests) + " requests offered at " +
              std::to_string(static_cast<std::uint64_t>(opt.rps)) +
              " rps over " + opt.transport + "; chain: " +
              std::to_string(opt.blocks) + " blocks x " +
              std::to_string(opt.txs) + " txs (KVStore); fault rate " +
              std::to_string(opt.fault_rate) + " (seed " +
              std::to_string(opt.seed) + "); host cores: " +
              std::to_string(std::thread::hardware_concurrency()));

  ServingFixture fixture(opt);
  VerifyServedReplies(opt, fixture);
  std::printf("served replies verify client-side against the certified tip\n\n");

  RunResult off = RunLoad(opt, fixture, /*cache_enabled=*/false);
  RunResult on = RunLoad(opt, fixture, /*cache_enabled=*/true);

  std::printf("%9s | %9s %8s %8s %8s | %7s %8s\n", "cache", "tput r/s",
              "p50 ms", "p95 ms", "p99 ms", "shed", "hit rate");
  std::printf("----------+------------------------------------------+------------------\n");
  for (const auto* r : {&off, &on}) {
    std::printf("%9s | %9.0f %8.2f %8.2f %8.2f | %6.1f%% %7.1f%%\n",
                r == &off ? "disabled" : "enabled", r->throughput, r->p50_ms,
                r->p95_ms, r->p99_ms, 100.0 * r->shed_rate,
                100.0 * r->server.cache.HitRate());
  }
  const double speedup = off.throughput > 0 ? on.throughput / off.throughput : 0;
  std::printf("\ncache speedup: %.2fx (OK-reply throughput, same offered load)\n",
              speedup);
  if (opt.fault_rate > 0.0) {
    std::printf("faults injected: %llu (retries %llu, reconnects %llu, "
                "timeouts %llu, giveups %llu)\n",
                static_cast<unsigned long long>(off.faults_injected +
                                                on.faults_injected),
                static_cast<unsigned long long>(off.retries + on.retries),
                static_cast<unsigned long long>(off.reconnects + on.reconnects),
                static_cast<unsigned long long>(off.timeouts + on.timeouts),
                static_cast<unsigned long long>(off.giveups + on.giveups));
  }

  // Observability A/B: the same cache-enabled load with the registry's global
  // kill-switch off (Add/Record are branch-only no-ops) vs. on. Run-to-run
  // variance of the oversubscribed load is several percent, so a single pair
  // is noise: interleave three pairs and compare median throughputs.
  std::string obs_ab_json;
  if (opt.obs_ab) {
    constexpr int kTrials = 3;
    std::vector<double> plain_tput, instr_tput;
    RunResult plain_last, instr_last;
    for (int t = 0; t < kTrials; ++t) {
      obs::SetEnabled(false);
      plain_last = RunLoad(opt, fixture, /*cache_enabled=*/true);
      plain_tput.push_back(plain_last.throughput);
      obs::SetEnabled(true);
      instr_last = RunLoad(opt, fixture, /*cache_enabled=*/true);
      instr_tput.push_back(instr_last.throughput);
    }
    const double plain_med = Median(plain_tput);
    const double instr_med = Median(instr_tput);
    const double overhead_pct =
        plain_med > 0 ? 100.0 * (plain_med - instr_med) / plain_med : 0.0;
    std::printf("\nobservability A/B (cache enabled, median of %d interleaved "
                "pairs): obs-off %.0f r/s, obs-on %.0f r/s, overhead %.2f%% "
                "(budget 5%%)\n",
                kTrials, plain_med, instr_med, overhead_pct);
    JsonObject ab;
    ab.Put("trials", kTrials)
        .Put("obs_disabled_tput_median", plain_med)
        .Put("obs_enabled_tput_median", instr_med)
        .PutRaw("obs_disabled", plain_last.Json())
        .PutRaw("obs_enabled", instr_last.Json())
        .Put("overhead_pct", overhead_pct);
    obs_ab_json = ab.Str();
  }

  std::string hedge_ab_json;
  if (opt.hedge_ab) {
    hedge_ab_json = RunHedgeAbSection(opt, fixture);
  }

  std::string fleet_json;
  if (fleet_spec) {
    fleet_json = RunFleetSection(opt, fixture, *fleet_spec);
  }

  if (!opt.json_path.empty()) {
    JsonObject doc;
    doc.Put("bench", "bench_serving")
        .PutRaw("meta", JsonRunMeta())
        .Put("transport", opt.transport)
        .Put("clients", static_cast<std::uint64_t>(opt.clients))
        .Put("requests", static_cast<std::uint64_t>(opt.requests))
        .Put("offered_rps", opt.rps)
        .Put("blocks", static_cast<std::uint64_t>(opt.blocks))
        .Put("txs_per_block", static_cast<std::uint64_t>(opt.txs))
        .Put("fault_rate", opt.fault_rate)
        .Put("seed", opt.seed)
        .PutRaw("cache_disabled", off.Json())
        .PutRaw("cache_enabled", on.Json())
        .Put("cache_speedup", speedup);
    if (!obs_ab_json.empty()) doc.PutRaw("obs_ab", obs_ab_json);
    if (!hedge_ab_json.empty()) doc.PutRaw("hedge_ab", hedge_ab_json);
    if (!fleet_json.empty()) doc.PutRaw("fleet", fleet_json);
    doc.PutRaw("metrics", metrics_delta.Json());
    WriteJsonFile(opt.json_path, doc.Str());
  }
  return 0;
}
