// Workloads `query_hot` and `query_churn`: verified queries.
//
// Latency is measured in open loop: requests are scheduled at a fixed
// offered rate and dealt round-robin to the load threads, each holding one
// connection; a thread that falls behind sends its next request at once,
// and every latency is taken from the *scheduled* send time, so a stall also
// charges the requests queued behind it. A request counts as done only once
// its reply verified against a certificate-validated tip and matched the
// ground truth.
//
// Capacity is measured in closed loop on the same connections: each thread
// sends its next request as soon as the previous one completes. With
// synchronous connections that completion rate is the highest offered rate
// the generator can sustain; above it the open-loop backlog grows without
// bound.
//
// An untraced run alternates the two: kCycles cycles, each spending
// kFixedShare of its time at the fixed rate and the rest in closed loop, so
// that both metrics sample the host across the whole run. A traced run spends half its time untraced and half
// traced at the fixed rate and reports the layer metrics and the tracing
// overhead.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "fixture.h"
#include "fleet/fleet_client.h"
#include "fleet/fleet_router.h"
#include "fleet/shard_map.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/tcp_transport.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dcert;

// query_hot: a 12-block chain of 50 transactions over 16 KVStore keys,
// offered 2000 q/s.
constexpr std::size_t kHotBlocks = 12;
constexpr std::size_t kHotTxs = 50;
constexpr std::uint64_t kHotKeys = 16;
constexpr double kHotRate = 2000.0;
// query_churn: 8 blocks of 40 transactions over 100 keys served at the
// start, then one more block announced every second; offered 60 q/s.
constexpr std::size_t kChurnBlocks = 8;
constexpr std::size_t kChurnTxs = 40;
constexpr std::uint64_t kChurnKeys = 100;
constexpr double kChurnRate = 60.0;
constexpr double kChurnAnnounceMs = 1000.0;
// One load thread with one connection: with the SP's worker, its TCP
// reader (query_hot) or the announcer and two shard servers (query_churn),
// the workload fits the 4 cores, leaving a core for the host's own work.
constexpr std::size_t kLoadThreads = 1;
// An untraced run's open/closed-loop cycles, and the share of each cycle
// spent at the fixed rate.
constexpr int kCycles = 6;
constexpr double kFixedShare = 0.6;
// query_hot: distinct repeated queries in the pool.
constexpr std::size_t kHotPool = 24;
// query_churn: one replica per shard. With two, the router sends a
// FleetClient's query and its tip fetch to different replicas; while an
// announcement is mid fan-out they disagree, the client reports "replica tip
// went backwards" as misbehaviour and quarantines the router, and every
// later query fails.
constexpr std::uint32_t kReplicas = 1;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration Secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// A certified chain: announcements for the SP, ground truth, and the
/// certificate-chain digest.
struct CertifiedChain {
  std::vector<svc::AnnounceRequest> anns;
  Truth truth;
  std::string digest;
};

/// Mines and certifies the fixture chain. A traced run records the
/// certification's spans (dcert.certify_ms moves setup_s here); the rest of
/// setup stays untraced.
CertifiedChain CertifyChain(const Options& opt, std::size_t blocks,
                            std::size_t txs, std::uint64_t kv_keys) {
  CertifiedChain out;
  MinedChain mined = MineChain(opt.seed, blocks, txs, kv_keys);
  Certifier certifier(mined);
  Tracer::SetEnabled(opt.trace);
  CertChainDigest digest;
  for (const chain::Block& b : mined.blocks) {
    auto ann = certifier.Certify(b, b.header.height);
    if (!ann.ok()) throw std::runtime_error(ann.message());
    digest.Add(ann.value());
    out.truth.Add(b);
    out.anns.push_back(std::move(ann.value()));
  }
  Tracer::SetEnabled(false);
  out.digest = digest.Hex();
  return out;
}

/// Every setup of one run must certify the identical chain.
void RecordDigest(Report& r, const std::string& hex) {
  auto it = r.info.find("cert_chain_digest");
  if (it != r.info.end() && it->second != hex) {
    r.Fail("certificate-chain digest differs between setups");
  }
  r.info["cert_chain_digest"] = hex;
}

/// Outcome of one open-loop phase.
struct Phase {
  std::vector<double> lat_ms;   // scheduled send -> verified correct result
  std::vector<double> at_s;     // scheduled send, seconds into the phase
  std::vector<double> late_ms;  // actual send - scheduled send
  std::uint64_t scheduled = 0, ok = 0, failed = 0, unsent = 0;
  double cpu_s = 0.0;  // work CPU time used during the phase

  double P(double q) const { return Percentile(lat_ms, q); }
  /// Adds a later phase's samples; its windows stay apart from these.
  void Append(const Phase& o) {
    const double shift =
        at_s.empty() ? 0.0 : std::floor(*std::max_element(at_s.begin(),
                                                          at_s.end())) + 1.0;
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    for (double t : o.at_s) at_s.push_back(t + shift);
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    scheduled += o.scheduled;
    ok += o.ok;
    failed += o.failed;
    unsent += o.unsent;
    cpu_s += o.cpu_s;
  }
  /// Each 1-second window's q-quantile, in window order.
  std::vector<double> Windows(double q) const {
    std::map<long, std::vector<double>> win;
    for (std::size_t i = 0; i < lat_ms.size(); ++i) {
      win[static_cast<long>(at_s[i])].push_back(lat_ms[i]);
    }
    std::vector<double> per;
    for (auto& [w, v] : win) per.push_back(Percentile(std::move(v), q));
    return per;
  }
};

/// One request: returns true when it produced a verified, correct result.
using IssueFn = std::function<bool(std::size_t client, std::uint64_t seq)>;

Phase RunOpenLoop(std::size_t clients, double rate, double seconds,
                  std::uint64_t seq0, const IssueFn& issue) {
  Phase p;
  p.scheduled = static_cast<std::uint64_t>(std::llround(rate * seconds));
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  // Requests not sent within a second after the phase count as failed.
  const auto give_up = t0 + Secs(seconds + 1.0);
  std::vector<Phase> per(clients);
  std::vector<std::thread> threads;
  const double cpu0 = WorkCpuSeconds();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Phase& me = per[c];
      for (std::uint64_t i = c; i < p.scheduled; i += clients) {
        const auto sched = t0 + Secs(static_cast<double>(i) / rate);
        if (Clock::now() > give_up) {
          me.unsent += (p.scheduled - i + clients - 1) / clients;
          break;
        }
        std::this_thread::sleep_until(sched);
        const auto sent = Clock::now();
        const std::int32_t root =
            Tracer::Open("bench.query", seq0 + i, ToNs(sched));
        const bool ok = issue(c, seq0 + i);
        const auto done = Clock::now();
        Tracer::Close(root, ToNs(done));
        me.late_ms.push_back(Ms(sent - sched));
        if (ok) {
          ++me.ok;
          me.lat_ms.push_back(Ms(done - sched));
          me.at_s.push_back(std::chrono::duration<double>(sched - t0).count());
        } else {
          ++me.failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  p.cpu_s = WorkCpuSeconds() - cpu0;
  for (const Phase& m : per) {
    p.lat_ms.insert(p.lat_ms.end(), m.lat_ms.begin(), m.lat_ms.end());
    p.at_s.insert(p.at_s.end(), m.at_s.begin(), m.at_s.end());
    p.late_ms.insert(p.late_ms.end(), m.late_ms.begin(), m.late_ms.end());
    p.ok += m.ok;
    p.failed += m.failed;
    p.unsent += m.unsent;
  }
  return p;
}

/// Outcome of one closed-loop phase.
struct Saturation {
  double seconds = 0.0;
  std::uint64_t attempted = 0, failed = 0;
};

Saturation RunClosedLoop(std::size_t clients, double seconds,
                         std::uint64_t seq0, const IssueFn& issue) {
  std::vector<std::uint64_t> attempted(clients, 0), failed(clients, 0);
  std::atomic<std::uint64_t> next{seq0};
  const auto t0 = Clock::now();
  const auto end = t0 + Secs(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < end) {
        ++attempted[c];
        if (!issue(c, next.fetch_add(1))) ++failed[c];
      }
    });
  }
  for (auto& t : threads) t.join();
  Saturation s;
  s.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  for (std::size_t c = 0; c < clients; ++c) {
    s.attempted += attempted[c];
    s.failed += failed[c];
  }
  return s;
}

/// The run loop shared by the two query workloads.
class OpenLoopWorkload : public Workload {
 public:
  OpenLoopWorkload(const Options& opt, double rate) : opt_(opt), rate_(rate) {}

  void Run(Report& r) override;

 protected:
  /// Issues request `seq` on load thread `client`.
  virtual bool Issue(std::size_t client, std::uint64_t seq) = 0;
  /// Background activity alongside the load (query_churn's announcer).
  virtual void StartBackground(Clock::time_point /*until*/) {}
  virtual void StopBackground(Report& /*r*/) {}
  /// Snapshot of the layers' stats; Layers reports the change since.
  virtual void MarkStats() = 0;
  virtual void Layers(Report& r, const Phase& traced) = 0;
  /// End-of-run checks against the serving side.
  virtual void FinalCheck(Report& r) = 0;

  /// Records a wrong or unverified result (any load thread).
  void Wrong(const std::string& what) {
    std::lock_guard<std::mutex> lk(wrong_mu_);
    ++wrong_;
    if (first_wrong_.empty()) first_wrong_ = what;
  }
  /// Records a failed request (any load thread); returns false.
  bool Failed(const std::string& why) {
    std::lock_guard<std::mutex> lk(wrong_mu_);
    if (first_error_.empty()) first_error_ = why;
    return false;
  }
  std::string FirstError() {
    std::lock_guard<std::mutex> lk(wrong_mu_);
    return first_error_;
  }

  Options opt_;
  double rate_;  // fixed offered rate, req/s

 private:
  std::mutex wrong_mu_;
  std::uint64_t wrong_ = 0;
  std::string first_wrong_;
  std::string first_error_;
};

void OpenLoopWorkload::Run(Report& r) {
  const IssueFn issue = [this](std::size_t c, std::uint64_t s) {
    return Issue(c, s);
  };
  const auto run_end = Clock::now() + Secs(opt_.seconds);
  StartBackground(run_end);

  std::uint64_t seq = 1;
  const auto count = [&](const Phase& p) {
    seq += p.scheduled;
    r.attempted += p.scheduled;
    r.failed += p.failed + p.unsent;
  };
  if (opt_.trace) {
    const Phase untraced =
        RunOpenLoop(kLoadThreads, rate_, opt_.seconds / 2, seq, issue);
    count(untraced);
    MarkStats();
    Tracer::SetEnabled(true);
    const Phase traced =
        RunOpenLoop(kLoadThreads, rate_, opt_.seconds / 2, seq, issue);
    Tracer::SetEnabled(false);
    count(traced);
    Layers(r, traced);
    const double base = untraced.P(0.5);
    r.Layer("bench.trace_overhead_pct",
            base > 0 ? 100.0 * (traced.P(0.5) - base) / base : 0.0, "%");
    r.Layer("bench.gen_late_p99_ms", Percentile(traced.late_ms, 0.99), "ms");
  } else {
    const double cycle_s = opt_.seconds / kCycles;
    Phase fixed;
    Saturation sat;
    double closed_s = 0.0;
    for (int i = 0; i < kCycles; ++i) {
      const Phase p = RunOpenLoop(kLoadThreads, rate_, cycle_s * kFixedShare,
                                  seq, issue);
      count(p);
      fixed.Append(p);
      const Saturation c = RunClosedLoop(
          kLoadThreads, cycle_s * (1.0 - kFixedShare), seq, issue);
      seq += c.attempted;
      sat.attempted += c.attempted;
      sat.failed += c.failed;
      closed_s += c.seconds;
    }
    r.attempted += sat.attempted;
    r.failed += sat.failed;
    r.E2e("capacity_per_s",
          closed_s > 0 ? static_cast<double>(sat.attempted - sat.failed) /
                             closed_s
                       : 0.0,
          "1/s");
    // Per 1-second window, so that host stalls move one window: the p50 is
    // the windows' mean median (the host alternates between a fast and a
    // slow regime for seconds at a time, and a mean moves with their share
    // where a median jumps between them); the p90 is the windows' median.
    const std::vector<double> p50s = fixed.Windows(0.5);
    double sum = 0;
    for (double v : p50s) sum += v;
    r.E2e("latency_p50_ms", p50s.empty() ? 0.0 : sum / p50s.size(), "ms");
    r.E2e("latency_p90_ms", Percentile(fixed.Windows(0.9), 0.5), "ms");
    r.info["latency_p50_all_ms"] = std::to_string(fixed.P(0.5));
    r.info["samples"] = std::to_string(fixed.lat_ms.size());
    r.info["latency_p99_ms"] = std::to_string(fixed.P(0.99));
    r.info["gen_late_p99_ms"] = std::to_string(Percentile(fixed.late_ms, 0.99));
    r.info["cpu_ms_per_op"] =
        std::to_string(1e3 * fixed.cpu_s / std::max<double>(1, fixed.ok));
  }
  StopBackground(r);

  FinalCheck(r);
  if (std::string err = FirstError(); !err.empty()) r.info["first_error"] = err;
  if (wrong_ > 0) {
    r.Fail(std::to_string(wrong_) + " wrong or unverified results, first: " +
           first_wrong_);
  }
}

/// Sums of the layer histograms several servers own.
obs::HistogramSnapshot Merged(
    const std::vector<std::shared_ptr<obs::Histogram>>& hists) {
  obs::HistogramSnapshot out;
  for (const auto& h : hists) out = out.MergedWith(h->Snapshot());
  return out;
}

/// Server-side stats shared by both query workloads.
struct ServerMarks {
  std::vector<svc::SpServerStats> stats;
  obs::HistogramSnapshot service;   // historical + aggregate
  obs::HistogramSnapshot all_ns;    // + tip fetches
  std::uint64_t pool_tasks = 0;
};

class ServerSet {
 public:
  void Add(std::unique_ptr<svc::SpServer> server) {
    // Each server registers its own histograms under the global names,
    // latest wins, so take this server's right after it registered.
    auto& reg = obs::MetricsRegistry::Global();
    query_hists_.push_back(reg.GetHistogram("svc.latency.historical_ns"));
    query_hists_.push_back(reg.GetHistogram("svc.latency.aggregate_ns"));
    tip_hists_.push_back(reg.GetHistogram("svc.latency.tip_ns"));
    servers_.push_back(std::move(server));
  }
  svc::SpServer& operator[](std::size_t i) { return *servers_[i]; }
  svc::SpServer& back() { return *servers_.back(); }
  void ShutdownAll() {
    for (auto& s : servers_) s->Shutdown();
  }

  ServerMarks Mark() const {
    ServerMarks m;
    for (const auto& s : servers_) m.stats.push_back(s->Stats());
    m.service = Merged(query_hists_);
    m.all_ns = m.service.MergedWith(Merged(tip_hists_));
    m.pool_tasks = obs::MetricsRegistry::Global()
                       .GetCounter("common.pool.tasks_executed")
                       ->Value();
    return m;
  }

  /// Reports the server-side layer metrics since `before`; `ops` is the
  /// number of logical queries issued meanwhile.
  void Report(perfbench::Report& r, const ServerMarks& before,
              std::uint64_t ops) const {
    const ServerMarks now = Mark();
    std::uint64_t hits = 0, lookups = 0, inval = 0, served = 0, shed = 0;
    for (std::size_t i = 0; i < now.stats.size(); ++i) {
      const auto& a = before.stats[i];
      const auto& b = now.stats[i];
      hits += b.cache.hits - a.cache.hits;
      lookups += (b.cache.hits + b.cache.misses) -
                 (a.cache.hits + a.cache.misses);
      inval += b.cache.invalidations - a.cache.invalidations;
      served += b.served - a.served;
      shed += b.shed - a.shed;
    }
    const obs::HistogramSnapshot service =
        now.service.DeltaFrom(before.service);
    r.Layer("svc.server.service_p50_ms", service.Quantile(0.5) / 1e6, "ms");
    r.Layer("svc.server.service_p99_ms", service.Quantile(0.99) / 1e6, "ms");
    r.Layer("svc.cache.hit_rate",
            lookups > 0 ? static_cast<double>(hits) / lookups : 0.0, "ratio");
    r.Layer("svc.cache.invalidations", static_cast<double>(inval), "count");
    r.Layer("svc.server.shed_frac",
            served + shed > 0 ? static_cast<double>(shed) / (served + shed)
                              : 0.0,
            "ratio");
    r.Layer("common.pool.tasks_executed",
            ops > 0
                ? static_cast<double>(now.pool_tasks - before.pool_tasks) / ops
                : 0.0,
            "count/op");
  }

  /// Mean server time (tip fetches included) per logical query since
  /// `before`, in ms.
  double ServiceMsPerOp(const ServerMarks& before, std::uint64_t ops) const {
    const obs::HistogramSnapshot d = Mark().all_ns.DeltaFrom(before.all_ns);
    return ops > 0 ? static_cast<double>(d.sum) / 1e6 / ops : 0.0;
  }

 private:
  std::vector<std::unique_ptr<svc::SpServer>> servers_;
  std::vector<std::shared_ptr<obs::Histogram>> query_hists_;
  std::vector<std::shared_ptr<obs::Histogram>> tip_hists_;
};

// ---------------------------------------------------------------------------
// query_hot: one SpServer over TCP, a small pool of repeated queries over a
// static certified tip; the reply cache answers nearly everything.
// ---------------------------------------------------------------------------

class QueryHot final : public OpenLoopWorkload {
 public:
  explicit QueryHot(const Options& opt) : OpenLoopWorkload(opt, kHotRate) {}

  ~QueryHot() override {
    clients_.clear();
    servers_.ShutdownAll();
  }

  void Setup(Report& r) override {
    chain_ = CertifyChain(opt_, opt_.blocks > 0 ? opt_.blocks : kHotBlocks,
                          kHotTxs, kHotKeys);
    RecordDigest(r, chain_.digest);
    svc::SpServerConfig config;
    config.workers = kSpWorkers;
    servers_.Add(std::make_unique<svc::SpServer>(config));
    if (Status st = servers_[0].Serve(tcp_); !st) {
      throw std::runtime_error("serve: " + st.message());
    }
    for (const svc::AnnounceRequest& ann : chain_.anns) {
      if (Status st = servers_[0].Announce(ann); !st) {
        throw std::runtime_error("announce: " + st.message());
      }
    }
    const std::uint64_t tip = chain_.anns.back().block.header.height;
    Rng rng(opt_.seed ^ 0x9001ULL);
    const std::vector<std::uint64_t> accounts = chain_.truth.Accounts();
    while (pool_.size() < kHotPool) {
      const std::uint64_t account = accounts[rng.NextBelow(accounts.size())];
      pool_.push_back({svc::Op::kHistorical, account, 1, tip});
      pool_.push_back({svc::Op::kHistorical, account, tip / 2 + 1, tip});
      pool_.push_back({svc::Op::kAggregate, account, 1, tip});
    }
    pool_.resize(kHotPool);
    // Each client validates the tip once, then warms up over the pool.
    for (std::size_t c = 0; c < kLoadThreads; ++c) {
      auto conn = svc::TcpClientTransport::Connect("127.0.0.1", tcp_.Port());
      if (!conn.ok()) throw std::runtime_error("connect: " + conn.message());
      auto client = std::make_unique<Client>(std::move(conn.value()),
                                             opt_.seed * 131 + c);
      std::uint64_t height = 0;
      if (std::string err =
              FetchCertifiedTip(client->sp, &client->digest, &height);
          !err.empty()) {
        throw std::runtime_error(err);
      }
      clients_.push_back(std::move(client));
      for (std::uint64_t i = 0; i < pool_.size(); ++i) {
        if (!Query(c, pool_[i], i)) {
          throw std::runtime_error("warm-up query failed: " + FirstError());
        }
      }
    }
  }

 protected:
  bool Issue(std::size_t c, std::uint64_t seq) override {
    Client& cl = *clients_[c];
    return Query(c, pool_[cl.rng.NextBelow(pool_.size())], seq);
  }

  void MarkStats() override {
    marks_ = servers_.Mark();
    auto& reg = obs::MetricsRegistry::Global();
    bytes0_ = reg.GetCounter("net.tcp.bytes_out")->Value();
    frames0_ = reg.GetCounter("net.tcp.frames_out")->Value();
  }

  void Layers(Report& r, const Phase& traced) override {
    auto& reg = obs::MetricsRegistry::Global();
    const std::uint64_t frames =
        reg.GetCounter("net.tcp.frames_out")->Value() - frames0_;
    const std::uint64_t bytes =
        reg.GetCounter("net.tcp.bytes_out")->Value() - bytes0_;
    servers_.Report(r, marks_, traced.scheduled);
    r.Layer("svc.tcp.bytes_per_reply",
            frames > 0 ? static_cast<double>(bytes) / frames : 0.0, "bytes");
  }

  void FinalCheck(Report& r) override {
    SpotCheck(r, clients_[0]->sp, chain_.truth, opt_.seed, 6);
  }

 private:
  struct Client {
    Client(std::unique_ptr<svc::ClientTransport> conn, std::uint64_t seed)
        : sp(std::move(conn)), rng(seed) {}
    svc::SpClient sp;
    Rng rng;
    Hash256 digest;  // certified index digest this client validated
  };

  bool Query(std::size_t c, const svc::QueryRequest& q, std::uint64_t seq) {
    Client& cl = *clients_[c];
    Result<svc::SpClient::QueryResult> reply =
        Result<svc::SpClient::QueryResult>::Error("not sent");
    {
      ScopedSpan span("svc.client.call", seq);
      reply = q.op == svc::Op::kAggregate
                  ? cl.sp.Aggregate(q.account, q.from_height, q.to_height)
                  : cl.sp.Historical(q.account, q.from_height, q.to_height);
    }
    if (!reply.ok()) return Failed(reply.message());
    if (std::string err = CheckReply(chain_.truth, cl.digest, q,
                                     reply.value().proof, seq);
        !err.empty()) {
      Wrong(err);
      return false;
    }
    return true;
  }

  CertifiedChain chain_;
  svc::TcpServerTransport tcp_{0};
  ServerSet servers_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<svc::QueryRequest> pool_;
  ServerMarks marks_;
  std::uint64_t bytes0_ = 0, frames0_ = 0;
};

// ---------------------------------------------------------------------------
// query_churn: FleetClients through a FleetRouter in front of 2 height-band
// shards x `replicas` replicas, random windows over every account, while one
// thread announces the next pre-certified block through the router at a
// fixed interval (each announcement moves the tip and flushes reply caches).
// Height bands, not key shards: KVStore account words are small integers,
// which all fall in the first key-shard of the 64-bit key space.
// ---------------------------------------------------------------------------

class QueryChurn final : public OpenLoopWorkload {
 public:
  explicit QueryChurn(const Options& opt)
      : OpenLoopWorkload(opt, kChurnRate),
        blocks_(opt.blocks > 0 ? opt.blocks : kChurnBlocks),
        announce_ms_(opt.announce_ms > 0 ? opt.announce_ms
                                         : kChurnAnnounceMs) {}

  ~QueryChurn() override {
    if (announcer_.joinable()) announcer_.join();
    clients_.clear();
    if (router_) router_->Shutdown();
    servers_.ShutdownAll();
  }

  void Setup(Report& r) override {
    if (blocks_ < 3) {
      throw std::runtime_error("query_churn needs --blocks >= 3");
    }
    const std::size_t future = static_cast<std::size_t>(
        std::ceil(opt_.seconds * 1e3 / announce_ms_)) + 1;
    chain_ = CertifyChain(opt_, blocks_ + future, kChurnTxs, kChurnKeys);
    RecordDigest(r, chain_.digest);
    // Query accounts the index holds from the start: an account first
    // written by a later block would answer with a much cheaper absence
    // proof until then.
    Truth base;
    for (std::size_t i = 0; i < blocks_; ++i) {
      base.Add(chain_.anns[i].block);
    }
    accounts_ = base.Accounts();

    fleet::ShardMapConfig mc;
    mc.version = 1;
    mc.height_bands = 2;
    mc.band_blocks = (blocks_ + 1) / 2;
    band1_from_ = mc.band_blocks;
    mc.replicas = kReplicas;
    auto map = fleet::ShardMap::Create(mc);
    if (!map.ok()) throw std::runtime_error(map.message());
    for (std::uint32_t s = 0; s < map.value().TotalShards(); ++s) {
      for (std::uint32_t rep = 0; rep < mc.replicas; ++rep) {
        svc::SpServerConfig config;
        config.workers = kSpWorkers;
        config.shard = map.value().AssignmentFor(s);
        config.shard_map = map.value().Serialize();
        servers_.Add(std::make_unique<svc::SpServer>(config));
        transports_.push_back(std::make_unique<svc::LoopbackTransport>());
        if (Status st = servers_.back().Serve(*transports_.back());
            !st) {
          throw std::runtime_error("serve: " + st.message());
        }
      }
    }
    router_ = std::make_unique<fleet::FleetRouter>(
        map.value(),
        [this, reps = mc.replicas](std::uint32_t s,
                                   std::uint32_t rep) -> svc::Connector {
          svc::LoopbackTransport* lb = transports_[s * reps + rep].get();
          return [lb] {
            return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
          };
        });
    if (Status st = router_->Serve(front_); !st) {
      throw std::runtime_error("router: " + st.message());
    }
    svc::SpClient announcer(front_.Connect());
    for (std::size_t i = 0; i < blocks_; ++i) {
      auto ack = announcer.Announce(chain_.anns[i]);
      if (!ack.ok()) throw std::runtime_error("announce: " + ack.message());
    }
    next_ann_ = blocks_;
    acked_tip_.store(chain_.anns[blocks_ - 1].block.header.height);
    {
      // The fleet serves a tip a superlight client accepts.
      svc::SpClient probe(front_.Connect());
      Hash256 digest;
      std::uint64_t height = 0;
      if (std::string err = FetchCertifiedTip(probe, &digest, &height);
          !err.empty()) {
        throw std::runtime_error(err);
      }
    }

    // Behind the router every shard maps to the router's endpoint, which
    // picks among the replicas itself.
    mc.replicas = 1;
    auto client_map = fleet::ShardMap::Create(mc);
    if (!client_map.ok()) throw std::runtime_error(client_map.message());
    for (std::size_t c = 0; c < kLoadThreads; ++c) {
      fleet::FleetClientConfig fc;
      fc.fanout_threads = 1;
      auto client = std::make_unique<Client>(
          client_map.value(),
          [this](std::uint32_t, std::uint32_t) -> svc::Connector {
            return [this] {
              return Result<std::unique_ptr<svc::ClientTransport>>(
                  front_.Connect());
            };
          },
          fc, opt_.seed * 131 + c);
      clients_.push_back(std::move(client));
      for (std::uint64_t i = 0; i < 8; ++i) {
        if (!Issue(c, i)) {
          throw std::runtime_error("warm-up query failed: " + FirstError());
        }
      }
    }
  }

 protected:
  bool Issue(std::size_t c, std::uint64_t seq) override {
    Client& cl = *clients_[c];
    const std::uint64_t account = accounts_[cl.rng.NextBelow(accounts_.size())];
    // A random window that starts in the first height band and ends in the
    // second, at or below the acknowledged tip: every query scatters to both
    // shards, so each one does the same amount of work.
    svc::QueryRequest q;
    q.op = cl.rng.NextBelow(3) == 0 ? svc::Op::kAggregate
                                    : svc::Op::kHistorical;
    q.account = account;
    q.from_height = cl.rng.NextRange(1, band1_from_ - 1);
    q.to_height = cl.rng.NextRange(band1_from_,
                                   acked_tip_.load(std::memory_order_acquire));
    if (q.op == svc::Op::kAggregate) {
      Result<mht::MbAggregate> got =
          Result<mht::MbAggregate>::Error("not sent");
      {
        ScopedSpan span("fleet.client.query", seq);
        got = cl.fleet.Aggregate(q.account, q.from_height, q.to_height);
      }
      if (!got.ok()) return Failed(got.message());
      const mht::MbAggregate want =
          chain_.truth.Aggregate(q.account, q.from_height, q.to_height);
      if (got.value().count != want.count || got.value().sum != want.sum) {
        Wrong("fleet aggregate differs from ground truth");
        return false;
      }
      return true;
    }
    Result<std::vector<query::HistoricalVersion>> got =
        Result<std::vector<query::HistoricalVersion>>::Error("not sent");
    {
      ScopedSpan span("fleet.client.query", seq);
      got = cl.fleet.Historical(q.account, q.from_height, q.to_height);
    }
    if (!got.ok()) return Failed(got.message());
    if (got.value() !=
        chain_.truth.Historical(q.account, q.from_height, q.to_height)) {
      Wrong("fleet historical result differs from ground truth");
      return false;
    }
    return true;
  }

  void StartBackground(Clock::time_point until) override {
    announcer_ = std::thread([this, until] {
      svc::SpClient sp(front_.Connect());
      const auto start = Clock::now();
      for (std::uint64_t k = 1; next_ann_ < chain_.anns.size(); ++k) {
        const auto sched = start + Secs(k * announce_ms_ / 1e3);
        if (sched >= until) break;
        std::this_thread::sleep_until(sched);
        const svc::AnnounceRequest& ann = chain_.anns[next_ann_];
        const auto t0 = Clock::now();
        Result<std::uint64_t> ack = Result<std::uint64_t>::Error("not sent");
        {
          ScopedSpan span("fleet.router.announce", ann.block.header.height);
          ack = sp.Announce(ann);
        }
        const double ms = Ms(Clock::now() - t0);
        std::lock_guard<std::mutex> lk(ann_mu_);
        ++ann_attempted_;
        if (!ack.ok()) {
          ++ann_failed_;
          if (ann_error_.empty()) ann_error_ = ack.message();
          continue;
        }
        if (Tracer::Enabled()) Tracer::Sample("fleet.router.announce_ms", ms);
        ann_ms_.push_back(ms);
        acked_tip_.store(ann.block.header.height, std::memory_order_release);
        ++next_ann_;
      }
    });
  }

  void StopBackground(Report& r) override {
    if (announcer_.joinable()) announcer_.join();
    r.attempted += ann_attempted_;
    r.failed += ann_failed_;
    if (ann_failed_ > 0) r.info["announce_error"] = ann_error_;
    r.info["announcements"] = std::to_string(ann_ms_.size());
    r.info["announce_p50_ms"] = std::to_string(Percentile(ann_ms_, 0.5));
  }

  void MarkStats() override {
    marks_ = servers_.Mark();
    client0_ = ClientTotals();
    router0_ = router_->Stats();
  }

  void Layers(Report& r, const Phase& traced) override {
    const std::uint64_t ops = traced.scheduled;
    servers_.Report(r, marks_, ops);
    const fleet::FleetClientStats c = ClientTotals();
    const fleet::FleetRouterStats rt = router_->Stats();
    const double queries = static_cast<double>(c.queries - client0_.queries);
    r.Layer("fleet.client.subqueries_per_query",
            queries > 0 ? (c.subqueries - client0_.subqueries) / queries : 0.0,
            "count/op");
    r.Layer("fleet.client.failovers",
            static_cast<double>(c.failovers - client0_.failovers), "count");
    r.Layer("fleet.client.verify_failures",
            static_cast<double>(c.verify_failures - client0_.verify_failures),
            "count");
    r.Layer("fleet.client.giveups",
            static_cast<double>(c.giveups - client0_.giveups), "count");
    r.Layer("fleet.router.forwarded",
            queries > 0 ? (rt.forwarded - router0_.forwarded) / queries : 0.0,
            "count/op");
    r.Layer("fleet.router.failovers",
            static_cast<double>(rt.failovers - router0_.failovers), "count");
    r.Layer("fleet.router.errors",
            static_cast<double>(rt.errors - router0_.errors), "count");
    // What the fleet client adds on top of the servers' own time.
    std::vector<double> fleet_ms;
    for (const ThreadTrace* t : Tracer::Collect()) {
      for (const Span& s : t->spans) {
        if (std::string_view(s.name) == "fleet.client.query") {
          fleet_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
      }
    }
    r.Layer("fleet.client.overhead_ms",
            std::max(0.0, Percentile(fleet_ms, 0.5) -
                              servers_.ServiceMsPerOp(marks_, ops)),
            "ms");
  }

  void FinalCheck(Report& r) override {
    svc::SpClient sp(front_.Connect());
    Truth served;
    const std::uint64_t tip = acked_tip_.load();
    for (const svc::AnnounceRequest& a : chain_.anns) {
      if (a.block.header.height <= tip) served.Add(a.block);
    }
    // Plain queries reach one shard only when the window sits in one height
    // band; the last band is open-ended.
    SpotCheck(r, sp, served, opt_.seed, 6, band1_from_);
  }

 private:
  struct Client {
    Client(fleet::ShardMap map, fleet::FleetClient::BackendConnector backends,
           fleet::FleetClientConfig config, std::uint64_t seed)
        : fleet(std::move(map), std::move(backends), config), rng(seed) {}
    fleet::FleetClient fleet;
    Rng rng;
  };

  fleet::FleetClientStats ClientTotals() const {
    fleet::FleetClientStats t;
    for (const auto& c : clients_) {
      const fleet::FleetClientStats s = c->fleet.Stats();
      t.queries += s.queries;
      t.subqueries += s.subqueries;
      t.failovers += s.failovers;
      t.verify_failures += s.verify_failures;
      t.giveups += s.giveups;
    }
    return t;
  }

  const std::size_t blocks_;  // served before the run
  const double announce_ms_;
  CertifiedChain chain_;
  std::vector<std::uint64_t> accounts_;
  std::vector<std::unique_ptr<svc::LoopbackTransport>> transports_;
  ServerSet servers_;
  svc::LoopbackTransport front_;
  std::unique_ptr<fleet::FleetRouter> router_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::uint64_t band1_from_ = 1;
  std::atomic<std::uint64_t> acked_tip_{0};
  std::size_t next_ann_ = 0;
  std::thread announcer_;
  std::mutex ann_mu_;
  std::uint64_t ann_attempted_ = 0, ann_failed_ = 0;
  std::vector<double> ann_ms_;
  std::string ann_error_;
  ServerMarks marks_;
  fleet::FleetClientStats client0_;
  fleet::FleetRouterStats router0_;
};

}  // namespace

std::unique_ptr<Workload> MakeQueryHot(const Options& opt) {
  return std::make_unique<QueryHot>(opt);
}

std::unique_ptr<Workload> MakeQueryChurn(const Options& opt) {
  return std::make_unique<QueryChurn>(opt);
}

}  // namespace perfbench
