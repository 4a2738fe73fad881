// dcertctl — command-line companion for poking at a DCert deployment:
//
//   dcertctl measure                     print the pinned enclave identity
//   dcertctl keygen <seed>               derive an enclave-style key pair
//   dcertctl demo [blocks] [txs]         run the full pipeline, dump the tip cert
//   dcertctl mine-store <path> <blocks>  mine + certify a chain into a block store
//   dcertctl verify-store <path>         replay a stored chain, re-certify, verify
//   dcertctl fsck <block-log> [cert-log] verify/repair durable logs, cross-check
//   dcertctl recover <dir> [blocks]      open or crash-recover a durable CI,
//                                        then extend the chain
//   dcertctl checkpoint <dir> [blocks]   checkpointed durable CI: recover
//                                        through the newest checkpoint
//                                        (tail-only replay), extend, write
//                                        checkpoints on cadence, compact
//                                        logs, superlight-bootstrap demo
//   dcertctl inspect-cert <hex>          decode + envelope-check a certificate
//   dcertctl serve <port> [blocks] [txs] mine + certify a chain, serve it over TCP
//                                        (--shard i/N joins an N-shard fleet)
//   dcertctl query <host:port> ...       query a running server, verify replies
//   dcertctl fleet-query <eplist> ...    verified scatter-gather across a fleet
//   dcertctl stats <host:port>...        live metrics from one server, or a
//                                        merged fleet table from several
//   dcertctl fleet-health <host:port>... per-replica liveness table; inspect
//                                        and release misbehavior quarantines
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/block_store.h"
#include "chain/node.h"
#include "ckpt/checkpoint.h"
#include "ckpt/checkpointed_issuer.h"
#include "dcert/cert_store.h"
#include "dcert/durable_issuer.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "fleet/fleet_client.h"
#include "fleet/health.h"
#include "fleet/shard_map.h"
#include "obs/export.h"
#include "query/historical_index.h"
#include "sgxsim/attestation.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/tcp_transport.h"
#include "workloads/workloads.h"

using namespace dcert;

namespace {

/// Strict decimal parse of a whole argument; rejects empty strings, signs,
/// trailing garbage, and overflow (std::atoi would silently accept "12abc"
/// and map garbage to 0).
std::optional<std::uint64_t> ParseU64(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  std::uint64_t v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (~std::uint64_t{0} - digit) / 10) return std::nullopt;  // overflow
    v = v * 10 + digit;
  }
  return v;
}

std::optional<int> ParseInt(const char* s, int min, int max) {
  auto v = ParseU64(s);
  if (!v || *v > static_cast<std::uint64_t>(max)) return std::nullopt;
  const int n = static_cast<int>(*v);
  if (n < min) return std::nullopt;
  return n;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dcertctl <command> [args]\n"
               "  measure                      print enclave measurement + IAS key\n"
               "  keygen <seed>                derive a key pair from a seed\n"
               "  demo [blocks=5] [txs=10]     run mine->certify->validate\n"
               "  mine-store <path> <blocks>   mine a chain into a block store\n"
               "  verify-store <path>          replay + re-certify a stored chain\n"
               "  fsck <block-log> [cert-log]  verify/repair durable CI logs\n"
               "                               (truncates torn tails, re-checks\n"
               "                               CRCs, cross-checks certs vs blocks)\n"
               "  recover <dir> [blocks=5]     open or crash-recover the durable CI\n"
               "                               state in <dir>, then mine + certify\n"
               "                               <blocks> more\n"
               "  checkpoint <dir> [blocks=5] [--interval N=4]\n"
               "                               checkpointed durable CI in <dir>:\n"
               "                               recover through the newest valid\n"
               "                               checkpoint (replaying only the tail),\n"
               "                               mine + certify <blocks> more, sealing\n"
               "                               a checkpoint every N blocks and\n"
               "                               compacting pre-checkpoint log\n"
               "                               segments; ends with a superlight\n"
               "                               client bootstrap from the newest\n"
               "                               checkpoint\n"
               "  inspect-cert <hex>           decode and check a certificate\n"
               "  serve <port> [blocks=20] [txs=8] [--shard i/N] [--map-version V]\n"
               "        [--ckpt-dir D]\n"
               "                               mine + certify a chain, serve it over TCP\n"
               "                               (port 0 = ephemeral; Ctrl-D stops).\n"
               "                               --shard i/N serves only key-shard i of an\n"
               "                               N-shard fleet (map version V, default 1).\n"
               "                               --ckpt-dir warm-starts the server from\n"
               "                               the newest checkpoint in D and seals a\n"
               "                               fresh one there on shutdown\n"
               "  query <host:port> tip        fetch + validate the served tip\n"
               "  query <host:port> hist <account> <from> <to>\n"
               "                               verified historical window query\n"
               "  query <host:port> agg <account> <from> <to>\n"
               "                               verified count/sum aggregate query\n"
               "  fleet-query <eplist> hist|agg <account> <from> <to>\n"
               "              [--paranoid] [--map-version V]\n"
               "                               verified scatter-gather across a fleet.\n"
               "                               <eplist> is comma-separated shards, each\n"
               "                               '+'-separated replicas, shard order =\n"
               "                               shard id: h:p+h:p,h:p+h:p ...\n"
               "                               --paranoid cross-checks every subquery\n"
               "                               on a second replica\n"
               "  stats <host:port>... [--json|--prom]\n"
               "                               live metrics snapshot (latency\n"
               "                               percentiles, cache, shed/retry,\n"
               "                               pool, sgx); several endpoints merge\n"
               "                               into one fleet view (counters sum,\n"
               "                               gauges max, histograms merge);\n"
               "                               unreachable endpoints are reported\n"
               "                               inline and the rest still merge\n"
               "  fleet-health <host:port>... [--evidence FILE] [--release R]\n"
               "                               per-endpoint liveness table (tip\n"
               "                               height, uptime, inflight, shed\n"
               "                               rate, build) with version-skew\n"
               "                               detection. --evidence lists the\n"
               "                               misbehavior records a verifying\n"
               "                               client serialized to FILE;\n"
               "                               --release R drops replica R's\n"
               "                               records from FILE (operator\n"
               "                               quarantine release)\n");
  return 2;
}

/// Splits host:port with a strict port parse; nullopt on malformed targets.
std::optional<std::pair<std::string, std::uint16_t>> ParseTarget(
    const std::string& target) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  auto port = ParseInt(target.c_str() + colon + 1, 1, 65535);
  if (!port) return std::nullopt;
  return std::make_pair(target.substr(0, colon),
                        static_cast<std::uint16_t>(*port));
}

/// "i/N" — serve shard i of an N-shard fleet.
struct ShardSpec {
  std::uint32_t shard_id = 0;
  std::uint32_t total = 1;
};

std::optional<ShardSpec> ParseShardSpec(const std::string& s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= s.size()) {
    return std::nullopt;
  }
  const auto id = ParseU64(s.substr(0, slash).c_str());
  const auto total = ParseU64(s.substr(slash + 1).c_str());
  if (!id || !total || *total == 0 || *total > 4096 || *id >= *total) {
    return std::nullopt;
  }
  return ShardSpec{static_cast<std::uint32_t>(*id),
                   static_cast<std::uint32_t>(*total)};
}

/// "h:p+h:p,h:p" — comma-separated shards, '+'-separated replicas. Every
/// shard must list the same number of replicas; every endpoint must parse.
std::optional<std::vector<std::vector<std::string>>> ParseEndpointList(
    const std::string& s) {
  std::vector<std::vector<std::string>> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    const std::string shard = s.substr(start, comma - start);
    std::vector<std::string> replicas;
    std::size_t rs = 0;
    while (rs <= shard.size()) {
      std::size_t plus = shard.find('+', rs);
      if (plus == std::string::npos) plus = shard.size();
      const std::string ep = shard.substr(rs, plus - rs);
      if (!ParseTarget(ep)) return std::nullopt;
      replicas.push_back(ep);
      rs = plus + 1;
    }
    if (!out.empty() && replicas.size() != out.front().size()) {
      return std::nullopt;  // ragged replica counts
    }
    out.push_back(std::move(replicas));
    start = comma + 1;
  }
  return out;
}

/// Retry policy for interactive commands against a possibly flaky server:
/// bounded deadlines, a few jittered retries, redial on broken streams.
svc::RetryPolicy CliRetryPolicy() {
  svc::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.call_deadline = std::chrono::seconds(5);
  policy.initial_backoff = std::chrono::milliseconds(50);
  policy.max_backoff = std::chrono::milliseconds(800);
  policy.retry_budget = std::chrono::seconds(15);
  return policy;
}

struct Pipeline {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  core::CertificateIssuer ci;
  chain::FullNode miner_node;
  chain::Miner miner;
  workloads::AccountPool pool;
  workloads::WorkloadGenerator gen;

  Pipeline()
      : registry(workloads::MakeBlockbenchRegistry(2)),
        ci((config.difficulty_bits = 6, config), registry),
        miner_node(config, registry),
        miner(miner_node),
        pool(8, 7),
        gen(
            [] {
              workloads::WorkloadGenerator::Params p;
              p.kind = workloads::Workload::kSmallBank;
              p.instances_per_workload = 2;
              return p;
            }(),
            pool) {}

  Result<chain::Block> Mine(std::size_t txs) {
    auto block = miner.MineBlock(gen.NextBlockTxs(txs),
                                 1700000000 + miner_node.Height() * 15);
    if (block.ok()) {
      if (Status st = miner_node.SubmitBlock(block.value()); !st) {
        return Result<chain::Block>(st);
      }
    }
    return block;
  }
};

int CmdMeasure() {
  std::printf("enclave program:   %s v%s\n", core::kEnclaveProgramName,
              core::kEnclaveProgramVersion);
  std::printf("measurement:       %s\n",
              core::ExpectedEnclaveMeasurement().ToHex().c_str());
  std::printf("IAS public key:    %s\n",
              ToHex(sgxsim::AttestationService::IasPublicKey().Serialize()).c_str());
  return 0;
}

int CmdKeygen(const std::string& seed) {
  auto key = crypto::SecretKey::FromSeed(StrBytes(seed));
  std::printf("seed:       %s\n", seed.c_str());
  std::printf("public key: %s\n", ToHex(key.Public().Serialize()).c_str());
  std::printf("report data (pk binding): %s\n",
              core::KeyBindingReportData(key.Public()).ToHex().c_str());
  return 0;
}

int CmdDemo(int blocks, int txs) {
  Pipeline p;
  core::SuperlightClient client(core::ExpectedEnclaveMeasurement());
  for (int i = 0; i < blocks; ++i) {
    auto block = p.Mine(static_cast<std::size_t>(txs));
    if (!block.ok()) {
      std::fprintf(stderr, "mining failed: %s\n", block.message().c_str());
      return 1;
    }
    auto cert = p.ci.ProcessBlock(block.value());
    if (!cert.ok()) {
      std::fprintf(stderr, "certification failed: %s\n", cert.message().c_str());
      return 1;
    }
    if (Status st = client.ValidateAndAccept(block.value().header, cert.value());
        !st) {
      std::fprintf(stderr, "client rejected: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("block %2d certified (%.2f ms total, %llu ecall)\n", i + 1,
                p.ci.LastTiming().TotalMs(true),
                static_cast<unsigned long long>(p.ci.LastTiming().ecalls));
  }
  std::printf("\nclient height %llu, storage %zu bytes\n",
              static_cast<unsigned long long>(client.Height()),
              client.StorageBytes());
  std::printf("tip certificate (hex):\n%s\n",
              ToHex(client.LatestCert().Serialize()).c_str());
  return 0;
}

int CmdMineStore(const std::string& path, int blocks) {
  auto store = chain::BlockStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.message().c_str());
    return 1;
  }
  if (store.value().Count() != 0) {
    std::fprintf(stderr, "store %s is not empty (%llu blocks)\n", path.c_str(),
                 static_cast<unsigned long long>(store.value().Count()));
    return 1;
  }
  Pipeline p;
  if (Status st = store.value().Append(p.miner_node.GetBlock(0)); !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  for (int i = 0; i < blocks; ++i) {
    auto block = p.Mine(10);
    if (!block.ok() || !p.ci.ProcessBlock(block.value()) ||
        !store.value().Append(block.value())) {
      std::fprintf(stderr, "failed at block %d\n", i + 1);
      return 1;
    }
  }
  std::printf("mined + certified %d blocks into %s (tip %s)\n", blocks,
              path.c_str(),
              p.miner_node.Tip().header.Hash().ToHex().substr(0, 16).c_str());
  return 0;
}

int CmdVerifyStore(const std::string& path) {
  auto store = chain::BlockStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.message().c_str());
    return 1;
  }
  if (store.value().RecoveredFromTornTail()) {
    std::printf("note: recovered from a torn tail\n");
  }
  chain::ChainConfig config;
  config.difficulty_bits = 6;
  auto registry = workloads::MakeBlockbenchRegistry(2);
  auto node = chain::ReplayFromStore(store.value(), config, registry);
  if (!node.ok()) {
    std::fprintf(stderr, "replay failed: %s\n", node.message().c_str());
    return 1;
  }
  // Re-certify the replayed chain from scratch and validate the tip.
  core::CertificateIssuer ci(config, registry);
  core::SuperlightClient client(core::ExpectedEnclaveMeasurement());
  for (std::uint64_t h = 1; h < store.value().Count(); ++h) {
    auto block = store.value().Get(h);
    auto cert = ci.ProcessBlock(block.value());
    if (!cert.ok()) {
      std::fprintf(stderr, "re-certification failed at %llu: %s\n",
                   static_cast<unsigned long long>(h), cert.message().c_str());
      return 1;
    }
    if (!client.ValidateAndAccept(block.value().header, cert.value())) return 1;
  }
  std::printf("replayed %llu blocks, state root %s..., client validated tip %llu\n",
              static_cast<unsigned long long>(store.value().Count()),
              node.value().State().Root().ToHex().substr(0, 16).c_str(),
              static_cast<unsigned long long>(client.Height()));
  return 0;
}

int CmdFsck(const std::string& block_path, const std::string& cert_path) {
  // Opening a RecordLog IS the repair: torn/corrupt tails are truncated and
  // fsynced. Every surviving record is then re-read (which re-verifies its
  // CRC) and the two logs are cross-checked: cert i must sign block i+1 and
  // carry a valid envelope from the pinned enclave.
  auto blocks = chain::BlockStore::Open(block_path);
  if (!blocks.ok()) {
    std::fprintf(stderr, "%s\n", blocks.message().c_str());
    return 1;
  }
  std::printf("block log: %llu record(s)%s%s\n",
              static_cast<unsigned long long>(blocks.value().Count()),
              blocks.value().RecoveredFromTornTail()
                  ? " (REPAIRED: torn tail truncated)"
                  : "",
              blocks.value().SidecarRebuilt()
                  ? " (REPAIRED: segment sidecar index rebuilt)"
                  : "");
  if (blocks.value().BaseHeight() > 0) {
    std::printf("block log: heights below %llu compacted (checkpointed "
                "history)\n",
                static_cast<unsigned long long>(blocks.value().BaseHeight()));
  }
  for (std::uint64_t h = blocks.value().BaseHeight();
       h < blocks.value().Count(); ++h) {
    auto blk = blocks.value().Get(h);
    if (!blk.ok()) {
      std::fprintf(stderr, "block %llu unreadable: %s\n",
                   static_cast<unsigned long long>(h), blk.message().c_str());
      return 1;
    }
    if (blk.value().header.height != h) {
      std::fprintf(stderr, "block record %llu has height %llu\n",
                   static_cast<unsigned long long>(h),
                   static_cast<unsigned long long>(blk.value().header.height));
      return 1;
    }
  }
  if (cert_path.empty()) {
    std::printf("fsck OK\n");
    return 0;
  }

  auto certs = core::CertificateStore::Open(cert_path);
  if (!certs.ok()) {
    std::fprintf(stderr, "%s\n", certs.message().c_str());
    return 1;
  }
  std::printf("cert log:  %llu record(s)%s%s\n",
              static_cast<unsigned long long>(certs.value().Count()),
              certs.value().RecoveredFromTornTail()
                  ? " (REPAIRED: torn tail truncated)"
                  : "",
              certs.value().SidecarRebuilt()
                  ? " (REPAIRED: segment sidecar index rebuilt)"
                  : "");
  if (certs.value().BaseIndex() > 0) {
    std::printf("cert log:  records below %llu compacted (checkpointed "
                "history)\n",
                static_cast<unsigned long long>(certs.value().BaseIndex()));
  }
  const std::uint64_t expected =
      blocks.value().Count() == 0 ? 0 : blocks.value().Count() - 1;
  if (certs.value().Count() != expected) {
    std::printf("note: cert log has %llu record(s), block log implies %llu "
                "(reopen the durable issuer to reconcile)\n",
                static_cast<unsigned long long>(certs.value().Count()),
                static_cast<unsigned long long>(expected));
  }
  const std::uint64_t checkable =
      certs.value().Count() < expected ? certs.value().Count() : expected;
  // Cross-checking cert i needs block i+1: start above both compaction
  // floors (compaction keeps them aligned — block H and cert H-1 survive).
  std::uint64_t first = certs.value().BaseIndex();
  if (blocks.value().BaseHeight() > 0 &&
      blocks.value().BaseHeight() - 1 > first) {
    first = blocks.value().BaseHeight() - 1;
  }
  for (std::uint64_t i = first; i < checkable; ++i) {
    auto cert = certs.value().Get(i);
    if (!cert.ok()) {
      std::fprintf(stderr, "cert %llu unreadable: %s\n",
                   static_cast<unsigned long long>(i), cert.message().c_str());
      return 1;
    }
    auto blk = blocks.value().Get(i + 1);
    if (cert.value().digest != blk.value().header.Hash()) {
      std::fprintf(stderr, "cert %llu does not sign block %llu\n",
                   static_cast<unsigned long long>(i),
                   static_cast<unsigned long long>(i + 1));
      return 1;
    }
    if (Status st = core::VerifyCertificateEnvelope(
            cert.value(), core::ExpectedEnclaveMeasurement());
        !st) {
      std::fprintf(stderr, "cert %llu envelope invalid: %s\n",
                   static_cast<unsigned long long>(i), st.message().c_str());
      return 1;
    }
  }
  std::printf("fsck OK (%llu cert(s) cross-checked)\n",
              static_cast<unsigned long long>(
                  checkable > first ? checkable - first : 0));
  return 0;
}

int CmdRecover(const std::string& dir, int blocks) {
  // Open (or crash-recover) the durable CI state under `dir`, report what
  // recovery found, then extend the chain to show issuance resumed under the
  // same sealed key.
  chain::ChainConfig config;
  config.difficulty_bits = 6;
  auto registry = workloads::MakeBlockbenchRegistry(2);
  core::DurableIssuerOptions options;
  options.block_log_path = dir + "/blocks.log";
  options.cert_log_path = dir + "/certs.log";
  options.sealed_key_path = dir + "/key.sealed";
  auto durable = core::DurableCertificateIssuer::Open(config, registry, options);
  if (!durable.ok()) {
    std::fprintf(stderr, "open failed: %s\n", durable.message().c_str());
    return 1;
  }
  auto& ci = durable.value();
  const auto& rec = ci.Recovery();
  std::printf("%s: height %llu, pk %s...\n",
              rec.resumed ? "resumed" : "fresh start",
              static_cast<unsigned long long>(ci.Issuer().Node().Height()),
              ToHex(ci.Issuer().EnclaveKey().Serialize()).substr(0, 16).c_str());
  if (rec.block_log_torn) std::printf("  block log: torn tail truncated\n");
  if (rec.cert_log_torn) std::printf("  cert log: torn tail truncated\n");
  if (rec.certs_truncated > 0) {
    std::printf("  reconciled: %llu dangling cert(s) dropped\n",
                static_cast<unsigned long long>(rec.certs_truncated));
  }
  if (rec.blocks_recertified > 0) {
    std::printf("  reconciled: %llu gap block(s) re-certified\n",
                static_cast<unsigned long long>(rec.blocks_recertified));
  }
  if (rec.blocks_replayed > 0) {
    std::printf("  replayed %llu certified block(s)\n",
                static_cast<unsigned long long>(rec.blocks_replayed));
  }

  // Resume mining on top of the recovered chain.
  auto miner_node = chain::ReplayFromStore(ci.Blocks(), config, registry);
  if (!miner_node.ok()) {
    std::fprintf(stderr, "miner replay failed: %s\n",
                 miner_node.message().c_str());
    return 1;
  }
  chain::Miner miner(miner_node.value());
  workloads::AccountPool pool(8, 7);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kSmallBank;
  params.instances_per_workload = 2;
  workloads::WorkloadGenerator gen(params, pool);
  // The generator is deterministic from its seed: fast-forward it past the
  // transactions the stored chain already carries, or the resumed run would
  // re-emit them against a state they no longer apply to.
  for (std::uint64_t h = 1; h < ci.Blocks().Count(); ++h) {
    auto stored = ci.Blocks().Get(h);
    if (stored.ok()) (void)gen.NextBlockTxs(stored.value().txs.size());
  }
  for (int i = 0; i < blocks; ++i) {
    auto block =
        miner.MineBlock(gen.NextBlockTxs(10),
                        1700000000 + miner_node.value().Height() * 15);
    if (!block.ok() || !miner_node.value().SubmitBlock(block.value())) {
      std::fprintf(stderr, "mining failed at block %d\n", i + 1);
      return 1;
    }
    if (Status st = ci.CertifyBlock(block.value()); !st) {
      std::fprintf(stderr, "certification failed: %s\n", st.message().c_str());
      return 1;
    }
  }
  std::printf("extended by %d block(s): height %llu, %llu block(s) / %llu "
              "cert(s) durable, tip %s...\n",
              blocks,
              static_cast<unsigned long long>(ci.Issuer().Node().Height()),
              static_cast<unsigned long long>(ci.Blocks().Count()),
              static_cast<unsigned long long>(ci.Certs().Count()),
              ci.Issuer().Node().Tip().header.Hash().ToHex().substr(0, 16).c_str());
  return 0;
}

int CmdCheckpoint(const std::string& dir, int blocks, std::uint64_t interval) {
  // Checkpointed durable CI: recovery goes through the newest valid
  // checkpoint (issuer snapshot install + tail-only replay), issuance seals
  // new checkpoints on cadence and compacts pre-checkpoint log segments, and
  // a superlight client bootstrap from the newest checkpoint closes the loop.
  constexpr std::size_t kTxPerBlock = 10;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "mkdir %s: %s\n", dir.c_str(),
                 std::strerror(errno));
    return 1;
  }
  chain::ChainConfig config;
  config.difficulty_bits = 6;
  auto registry = workloads::MakeBlockbenchRegistry(2);
  core::DurableIssuerOptions options;
  options.block_log_path = dir + "/blocks.log";
  options.cert_log_path = dir + "/certs.log";
  options.sealed_key_path = dir + "/key.sealed";
  options.segment_records = 8;
  ckpt::CheckpointConfig ck_config;
  ck_config.dir = dir + "/ckpt";
  ck_config.interval = interval;
  auto opened =
      ckpt::CheckpointedIssuer::Open(config, registry, options, ck_config);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n", opened.message().c_str());
    return 1;
  }
  auto& ci = opened.value();
  const auto& rec = ci.Durable().Recovery();
  std::printf("%s: height %llu\n", rec.resumed ? "resumed" : "fresh start",
              static_cast<unsigned long long>(
                  ci.Durable().Issuer().Node().Height()));
  if (rec.bootstrap_height > 0) {
    std::printf("  bootstrapped from checkpoint at height %llu, replayed "
                "%llu tail block(s)\n",
                static_cast<unsigned long long>(rec.bootstrap_height),
                static_cast<unsigned long long>(rec.blocks_replayed +
                                                rec.blocks_recertified));
  } else if (rec.resumed) {
    std::printf("  no usable checkpoint: replayed %llu block(s) from "
                "genesis\n",
                static_cast<unsigned long long>(rec.blocks_replayed));
  }
  if (ci.Durable().Blocks().BaseHeight() > 0) {
    std::printf("  block log compacted below height %llu\n",
                static_cast<unsigned long long>(
                    ci.Durable().Blocks().BaseHeight()));
  }

  // Miner node from the issuer's in-memory snapshot — pre-checkpoint blocks
  // may be compacted away, so replay-from-store cannot build it.
  chain::FullNode miner_node(config, registry);
  const chain::FullNode& ci_node = ci.Durable().Issuer().Node();
  if (ci_node.Height() > 0) {
    if (Status st = miner_node.InstallSnapshot(ci_node.Tip(),
                                               ci_node.State().Snapshot());
        !st) {
      std::fprintf(stderr, "miner snapshot failed: %s\n", st.message().c_str());
      return 1;
    }
  }
  chain::Miner miner(miner_node);
  workloads::AccountPool pool(8, 7);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kSmallBank;
  params.instances_per_workload = 2;
  workloads::WorkloadGenerator gen(params, pool);
  // This command always mines kTxPerBlock txs per block, so the
  // deterministic generator fast-forwards from the logical block count alone
  // — no need to read (possibly compacted) stored blocks.
  for (std::uint64_t h = 1; h < ci.Durable().Blocks().Count(); ++h) {
    (void)gen.NextBlockTxs(kTxPerBlock);
  }
  for (int i = 0; i < blocks; ++i) {
    auto block = miner.MineBlock(gen.NextBlockTxs(kTxPerBlock),
                                 1700000000 + miner_node.Height() * 15);
    if (!block.ok() || !miner_node.SubmitBlock(block.value())) {
      std::fprintf(stderr, "mining failed at block %d\n", i + 1);
      return 1;
    }
    if (Status st = ci.CertifyBlock(block.value()); !st) {
      std::fprintf(stderr, "certification failed: %s\n", st.message().c_str());
      return 1;
    }
  }
  std::printf("extended by %d block(s): height %llu, last checkpoint at "
              "height %llu, block log base %llu\n",
              blocks,
              static_cast<unsigned long long>(
                  ci.Durable().Issuer().Node().Height()),
              static_cast<unsigned long long>(ci.LastCheckpointHeight()),
              static_cast<unsigned long long>(
                  ci.Durable().Blocks().BaseHeight()));
  std::printf("checkpoints on disk:");
  for (std::uint64_t h : ci.Store().Heights()) {
    std::printf(" %llu", static_cast<unsigned long long>(h));
  }
  std::printf("\n");

  // Superlight bootstrap: (checkpoint, cert) instead of genesis — constant
  // cost regardless of chain length.
  auto latest = ci.Store().LoadLatestValid(~std::uint64_t{0},
                                           core::ExpectedEnclaveMeasurement());
  if (!latest.ok()) {
    std::fprintf(stderr, "checkpoint load failed: %s\n",
                 latest.message().c_str());
    return 1;
  }
  if (latest.value().has_value()) {
    core::SuperlightClient client(core::ExpectedEnclaveMeasurement());
    if (Status st = ckpt::BootstrapSuperlight(client, *latest.value()); !st) {
      std::fprintf(stderr, "superlight bootstrap failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    std::printf("superlight bootstrap: accepted certified tip at height %llu "
                "from the checkpoint (client stores %zu bytes)\n",
                static_cast<unsigned long long>(client.Height()),
                client.StorageBytes());
  }
  return 0;
}

int CmdInspectCert(const std::string& hex) {
  Bytes raw;
  try {
    raw = FromHex(hex);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad hex: %s\n", e.what());
    return 1;
  }
  auto cert = core::BlockCertificate::Deserialize(raw);
  if (!cert.ok()) {
    std::fprintf(stderr, "decode failed: %s\n", cert.message().c_str());
    return 1;
  }
  const auto& c = cert.value();
  std::printf("pk_enc:        %s\n", ToHex(c.pk_enc.Serialize()).c_str());
  std::printf("measurement:   %s\n", c.report.quote.measurement.ToHex().c_str());
  std::printf("report data:   %s\n", c.report.quote.report_data.ToHex().c_str());
  std::printf("digest:        %s\n", c.digest.ToHex().c_str());
  Status envelope =
      core::VerifyCertificateEnvelope(c, core::ExpectedEnclaveMeasurement());
  std::printf("envelope:      %s\n",
              envelope ? "VALID (IAS report, measurement, key binding, signature)"
                       : envelope.message().c_str());
  return envelope ? 0 : 1;
}

int CmdServe(int port, int blocks, int txs, const std::string& shard_spec,
             std::uint64_t map_version, const std::string& ckpt_dir) {
  // Mine + certify a fresh chain with an attached historical index, feed the
  // certified blocks to an SpServer, then serve it over real TCP until stdin
  // closes. `dcertctl query` is the matching client.
  //
  // With --shard i/N every process mines the SAME deterministic chain (fixed
  // seeds) and applies every block, but serves only key-shard i; start N of
  // these on distinct ports and point `dcertctl fleet-query` at them.
  //
  // With --ckpt-dir the server warm-starts from the newest valid SP
  // checkpoint in that directory (tip + index restored without replaying
  // announcements — the mined chain is deterministic, so a checkpoint from a
  // previous run of the same command matches), and seals a fresh checkpoint
  // there after the graceful drain. Works per shard: give each shard process
  // its own directory.
  svc::SpServerConfig server_config;
  if (!shard_spec.empty()) {
    const auto spec = ParseShardSpec(shard_spec);
    if (!spec) {
      std::fprintf(stderr, "--shard must be i/N with i < N, got %s\n",
                   shard_spec.c_str());
      return Usage();
    }
    fleet::ShardMapConfig map_config;
    map_config.version = map_version;
    map_config.key_shards = spec->total;
    auto map = fleet::ShardMap::Create(map_config);
    if (!map.ok()) {
      std::fprintf(stderr, "%s\n", map.message().c_str());
      return 1;
    }
    server_config.shard = map.value().AssignmentFor(spec->shard_id);
    server_config.shard_map = map.value().Serialize();
  }
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
  params.kv_keys = 10;
  workloads::WorkloadGenerator gen(params, pool);

  svc::SpServer server(server_config);

  // Warm start: restore tip + index from the newest valid checkpoint, then
  // announce only the blocks above it. The chain below is still mined (the
  // miner/CI need the state), but the server skips re-validating it.
  std::optional<ckpt::CheckpointStore> ckpt_store;
  std::uint64_t warm_height = 0;
  if (!ckpt_dir.empty()) {
    auto store = ckpt::CheckpointStore::Open(ckpt_dir);
    if (!store.ok()) {
      std::fprintf(stderr, "checkpoint dir open failed: %s\n",
                   store.message().c_str());
      return 1;
    }
    ckpt_store.emplace(std::move(store.value()));
    auto latest = ckpt_store->LoadLatestValid(
        static_cast<std::uint64_t>(blocks), server_config.expected_measurement);
    if (!latest.ok()) {
      std::fprintf(stderr, "checkpoint load failed: %s\n",
                   latest.message().c_str());
      return 1;
    }
    if (latest.value().has_value()) {
      if (Status st = server.Restore(&*latest.value(), nullptr); !st) {
        std::fprintf(stderr, "checkpoint rehydrate failed: %s\n",
                     st.message().c_str());
        return 1;
      }
      warm_height = latest.value()->height;
      std::printf("warm start: serving state restored from checkpoint at "
                  "height %llu (announcements resume above it)\n",
                  static_cast<unsigned long long>(warm_height));
    }
  }

  for (int i = 0; i < blocks; ++i) {
    auto block = miner.MineBlock(gen.NextBlockTxs(static_cast<std::size_t>(txs)),
                                 1700000000 + miner_node.Height() * 15);
    if (!block.ok() || !miner_node.SubmitBlock(block.value())) {
      std::fprintf(stderr, "mining failed at block %d\n", i + 1);
      return 1;
    }
    auto icerts = ci.ProcessBlockHierarchical(block.value());
    if (!icerts.ok()) {
      std::fprintf(stderr, "certification failed: %s\n", icerts.message().c_str());
      return 1;
    }
    if (block.value().header.height <= warm_height) continue;
    svc::AnnounceRequest ann;
    ann.block = block.value();
    ann.block_cert = *ci.LatestCert();
    ann.index_digest = hist->CurrentDigest();
    ann.index_cert = icerts.value()[0];
    if (Status st = server.Announce(ann); !st) {
      std::fprintf(stderr, "announce failed: %s\n", st.message().c_str());
      return 1;
    }
  }

  svc::TcpServerConfig tcp_config;
  tcp_config.port = static_cast<std::uint16_t>(port);
  svc::TcpServerTransport transport(tcp_config);
  if (Status st = server.Serve(transport); !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  std::printf("serving %d certified blocks on 127.0.0.1:%u (max %zu "
              "connections, dead peers reaped)\n",
              blocks, transport.Port(), tcp_config.max_connections);
  if (server_config.shard.Sharded()) {
    std::printf("shard %u/%u (map v%llu): serving account words [%llu, %llu]\n",
                server_config.shard.shard_id,
                server_config.shard.total_shards,
                static_cast<unsigned long long>(
                    server_config.shard.map_version),
                static_cast<unsigned long long>(server_config.shard.key_lo),
                static_cast<unsigned long long>(server_config.shard.key_hi));
  }
  std::printf("try: dcertctl query 127.0.0.1:%u tip   (Ctrl-D here stops)\n",
              transport.Port());
  std::fflush(stdout);
  while (std::getchar() != EOF) {
  }
  server.Shutdown();
  if (ckpt_store) {
    auto ck = server.ExportCheckpoint();
    if (!ck.ok()) {
      std::fprintf(stderr, "checkpoint export failed: %s\n",
                   ck.message().c_str());
    } else if (Status st = ckpt_store->Write(ck.value()); !st) {
      std::fprintf(stderr, "checkpoint write failed: %s\n",
                   st.message().c_str());
    } else {
      (void)ckpt_store->Prune(2);
      std::printf("checkpoint sealed at height %llu in %s\n",
                  static_cast<unsigned long long>(ck.value().height),
                  ckpt_store->Dir().c_str());
    }
  }
  std::printf("drained and stopped\n");
  return 0;
}

int CmdStats(const std::vector<std::string>& targets,
             const std::string& format) {
  for (const auto& target : targets) {
    if (!ParseTarget(target)) {
      std::fprintf(stderr, "target must be host:port, got %s\n",
                   target.c_str());
      return Usage();
    }
  }
  if (!format.empty() && format != "--json" && format != "--prom") {
    std::fprintf(stderr, "unknown stats flag %s\n", format.c_str());
    return Usage();
  }
  // One endpoint prints that server's snapshot; several merge into a fleet
  // view: counters sum (total work), gauges take the max (worst level),
  // histograms merge bucket-wise (fleet percentiles from the combined
  // distribution, not averaged quantiles). A down endpoint is exactly when
  // an operator reaches for this command, so an unreachable server is
  // reported inline and the reachable ones still merge; only an empty merge
  // (every endpoint down) is a hard failure.
  obs::MetricsSnapshot merged;
  std::size_t reached = 0;
  for (const auto& target : targets) {
    const auto [host, port] = *ParseTarget(target);
    svc::SpClient client(
        [host = host, port = port] {
          return svc::TcpClientTransport::Connect(host, port);
        },
        CliRetryPolicy());
    auto snap = client.FetchStats();
    if (!snap.ok()) {
      std::fprintf(stderr, "stats fetch from %s failed: %s\n", target.c_str(),
                   snap.message().c_str());
      continue;
    }
    merged.MergeFrom(snap.value());
    ++reached;
  }
  if (reached == 0) {
    std::fprintf(stderr, "stats: no endpoint reachable (%zu tried)\n",
                 targets.size());
    return 1;
  }
  std::string out;
  if (format == "--json") {
    out = obs::ToJson(merged);
    out += '\n';
  } else if (format == "--prom") {
    out = obs::ToPrometheusText(merged);
  } else {
    if (targets.size() > 1) {
      std::printf("fleet stats merged from %zu of %zu servers (counters "
                  "summed, gauges max, histograms merged)\n",
                  reached, targets.size());
    }
    out = obs::RenderTable(merged);
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

const char* OpName(std::uint8_t op) {
  switch (static_cast<svc::Op>(op)) {
    case svc::Op::kTipFetch: return "tip";
    case svc::Op::kHistorical: return "hist";
    case svc::Op::kAggregate: return "agg";
    case svc::Op::kAnnounce: return "announce";
    case svc::Op::kStats: return "stats";
    case svc::Op::kShardMap: return "shard-map";
    case svc::Op::kShardScoped: return "shard-scoped";
    case svc::Op::kHealth: return "health";
  }
  return "?";
}

int ListEvidence(const std::string& path) {
  auto records = fleet::LoadEvidenceFile(path);
  if (!records.ok()) {
    std::fprintf(stderr, "evidence file %s: %s\n", path.c_str(),
                 records.message().c_str());
    return 1;
  }
  std::printf("%zu misbehavior record(s) in %s\n", records.value().size(),
              path.c_str());
  for (const auto& e : records.value()) {
    std::printf(
        "  replica %u shard %u (map v%llu): op=%s account=%llu "
        "window=[%llu,%llu]\n"
        "    reply digest %s\n"
        "    verdict: %s\n",
        e.replica, e.shard_id, static_cast<unsigned long long>(e.map_version),
        OpName(e.op), static_cast<unsigned long long>(e.account),
        static_cast<unsigned long long>(e.from_height),
        static_cast<unsigned long long>(e.to_height),
        e.reply_digest.ToHex().c_str(), e.verdict.c_str());
  }
  return 0;
}

int ReleaseQuarantine(const std::string& path, std::uint32_t replica) {
  auto records = fleet::LoadEvidenceFile(path);
  if (!records.ok()) {
    std::fprintf(stderr, "evidence file %s: %s\n", path.c_str(),
                 records.message().c_str());
    return 1;
  }
  std::vector<fleet::MisbehaviorEvidence> kept;
  for (auto& e : records.value()) {
    if (e.replica != replica) kept.push_back(std::move(e));
  }
  const std::size_t dropped = records.value().size() - kept.size();
  if (Status st = fleet::WriteEvidenceFile(path, kept); !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 1;
  }
  std::printf("released replica %u: dropped %zu record(s), %zu remain in %s\n",
              replica, dropped, kept.size(), path.c_str());
  std::printf("(clients that attach this evidence file will re-admit the "
              "replica on next start)\n");
  return 0;
}

int CmdFleetHealth(const std::vector<std::string>& targets,
                   const std::string& evidence_path,
                   std::optional<std::uint32_t> release) {
  // Quarantine release is a pure evidence-file edit — the quarantine lives
  // with the verifying clients, not the servers — so it works (and must be
  // validated) before any endpoint is dialed.
  if (release && evidence_path.empty()) {
    std::fprintf(stderr, "--release requires --evidence FILE\n");
    return Usage();
  }
  if (targets.empty() && evidence_path.empty()) return Usage();
  for (const auto& target : targets) {
    if (!ParseTarget(target)) {
      std::fprintf(stderr, "target must be host:port, got %s\n",
                   target.c_str());
      return Usage();
    }
  }
  if (release) return ReleaseQuarantine(evidence_path, *release);

  int rc = 0;
  if (!targets.empty()) {
    std::printf("%-22s %10s %10s %8s %9s  %s\n", "endpoint", "tip",
                "uptime_s", "inflight", "shed%", "build");
    std::size_t reached = 0;
    std::set<std::string> builds;
    for (const auto& target : targets) {
      const auto [host, port] = *ParseTarget(target);
      svc::SpClient client(
          [host = host, port = port] {
            return svc::TcpClientTransport::Connect(host, port);
          },
          CliRetryPolicy());
      auto health = client.FetchHealth();
      if (!health.ok()) {
        std::printf("%-22s UNREACHABLE: %s\n", target.c_str(),
                    health.message().c_str());
        continue;
      }
      const auto& h = health.value();
      const std::uint64_t total = h.served + h.shed;
      const double shed_pct =
          total == 0 ? 0.0 : 100.0 * static_cast<double>(h.shed) /
                                 static_cast<double>(total);
      std::printf("%-22s %10llu %10llu %8llu %8.2f%%  %s\n", target.c_str(),
                  static_cast<unsigned long long>(h.tip_height),
                  static_cast<unsigned long long>(h.uptime_ms / 1000),
                  static_cast<unsigned long long>(h.inflight), shed_pct,
                  h.build.c_str());
      builds.insert(h.build);
      ++reached;
    }
    if (builds.size() > 1) {
      std::printf("WARNING: version skew — %zu distinct builds across the "
                  "fleet\n",
                  builds.size());
    }
    if (reached == 0) {
      std::fprintf(stderr, "fleet-health: no endpoint reachable (%zu tried)\n",
                   targets.size());
      rc = 1;
    }
  }
  if (!evidence_path.empty()) {
    const int erc = ListEvidence(evidence_path);
    if (erc != 0) rc = erc;
  }
  return rc;
}

int CmdFleetQuery(int argc, char** argv) {
  std::vector<std::string> pos;
  bool paranoid = false;
  std::uint64_t map_version = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--paranoid") {
      paranoid = true;
    } else if (arg == "--map-version" && i + 1 < argc) {
      const auto v = ParseU64(argv[++i]);
      if (!v || *v == 0) return Usage();
      map_version = *v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown fleet-query flag %s\n", arg.c_str());
      return Usage();
    } else {
      pos.push_back(arg);
    }
  }
  if (pos.size() < 5) return Usage();
  const auto endpoints = ParseEndpointList(pos[0]);
  if (!endpoints) {
    std::fprintf(stderr,
                 "endpoint list must be h:p+h:p,... with equal replica "
                 "counts, got %s\n",
                 pos[0].c_str());
    return Usage();
  }
  const std::string what = pos[1];
  const auto account = ParseU64(pos[2].c_str());
  const auto from = ParseU64(pos[3].c_str());
  const auto to = ParseU64(pos[4].c_str());
  if ((what != "hist" && what != "agg") || !account || !from || !to) {
    return Usage();
  }

  fleet::ShardMapConfig map_config;
  map_config.version = map_version;
  map_config.key_shards = static_cast<std::uint32_t>(endpoints->size());
  map_config.replicas = static_cast<std::uint32_t>(endpoints->front().size());
  auto map = fleet::ShardMap::Create(map_config, *endpoints);
  if (!map.ok()) {
    std::fprintf(stderr, "%s\n", map.message().c_str());
    return 1;
  }
  if (paranoid && map_config.replicas < 2) {
    std::fprintf(stderr, "--paranoid needs at least 2 replicas per shard\n");
    return Usage();
  }

  fleet::FleetClientConfig client_config;
  client_config.retry = CliRetryPolicy();
  client_config.cross_check = paranoid;
  fleet::FleetClient client(
      map.value(),
      [endpoints = *endpoints](std::uint32_t shard,
                               std::uint32_t replica) -> svc::Connector {
        const auto target = *ParseTarget(endpoints[shard][replica]);
        return [target] {
          return svc::TcpClientTransport::Connect(target.first, target.second);
        };
      },
      client_config);

  if (what == "hist") {
    auto versions = client.Historical(*account, *from, *to);
    if (!versions.ok()) {
      std::fprintf(stderr, "fleet query failed: %s\n",
                   versions.message().c_str());
      return 1;
    }
    std::printf("account %llu, blocks [%llu, %llu]: %zu version(s), every "
                "shard reply VERIFIED%s\n",
                static_cast<unsigned long long>(*account),
                static_cast<unsigned long long>(*from),
                static_cast<unsigned long long>(*to),
                versions.value().size(),
                paranoid ? " + cross-checked" : "");
    for (const auto& v : versions.value()) {
      std::printf("  block %6llu  value %llu\n",
                  static_cast<unsigned long long>(v.block_height),
                  static_cast<unsigned long long>(v.value));
    }
  } else {
    auto agg = client.Aggregate(*account, *from, *to);
    if (!agg.ok()) {
      std::fprintf(stderr, "fleet query failed: %s\n", agg.message().c_str());
      return 1;
    }
    std::printf("account %llu, blocks [%llu, %llu]: count=%llu sum=%llu, "
                "every shard reply VERIFIED%s\n",
                static_cast<unsigned long long>(*account),
                static_cast<unsigned long long>(*from),
                static_cast<unsigned long long>(*to),
                static_cast<unsigned long long>(agg.value().count),
                static_cast<unsigned long long>(agg.value().sum),
                paranoid ? " + cross-checked" : "");
  }
  const auto stats = client.Stats();
  std::printf("fleet: %llu subquery(ies), %llu verified, %llu failover(s), "
              "%llu cross-check(s)\n",
              static_cast<unsigned long long>(stats.subqueries),
              static_cast<unsigned long long>(stats.verified),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.cross_checks));
  return 0;
}

int CmdQuery(const std::string& target, int argc, char** argv) {
  auto parsed = ParseTarget(target);
  if (!parsed) {
    std::fprintf(stderr, "target must be host:port, got %s\n", target.c_str());
    return Usage();
  }
  // Validate the subcommand and its numeric arguments before any network
  // I/O, so a typo exits with usage instead of burning the retry budget
  // against a server that would never be asked anything sensible.
  const std::string what = argc >= 4 ? argv[3] : "tip";
  std::uint64_t account = 0, from = 0, to = 0;
  if (what == "hist" || what == "agg") {
    if (argc < 7) return Usage();
    const auto account_arg = ParseU64(argv[4]);
    const auto from_arg = ParseU64(argv[5]);
    const auto to_arg = ParseU64(argv[6]);
    if (!account_arg || !from_arg || !to_arg) return Usage();
    account = *account_arg;
    from = *from_arg;
    to = *to_arg;
  } else if (what != "tip") {
    return Usage();
  }

  const auto [host, port] = *parsed;
  // A CLI talking to a possibly slow or flaky server: bounded per-call
  // deadlines, a few backoff retries, and automatic redial on broken
  // streams, so a wedged SP yields an error instead of a hung terminal.
  svc::SpClient client(
      [host = host, port = port] {
        return svc::TcpClientTransport::Connect(host, port);
      },
      CliRetryPolicy());

  // Every answer is checked against a validated tip: certificate envelope,
  // header binding, and index certificate all check out or we stop. A query
  // reply carries the tip its proof was built at, so a block landing
  // mid-command cannot make an honest proof look forged.
  auto certified_digest = [](const svc::TipInfo& tip) -> std::optional<Hash256> {
    core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
    if (Status st = light.ValidateAndAccept(tip.header, tip.block_cert); !st) {
      std::fprintf(stderr, "tip certificate rejected: %s\n",
                   st.message().c_str());
      return std::nullopt;
    }
    if (Status st = light.AcceptIndexCert(tip.header, tip.index_cert,
                                          tip.index_digest, "historical");
        !st) {
      std::fprintf(stderr, "index certificate rejected: %s\n",
                   st.message().c_str());
      return std::nullopt;
    }
    return *light.CertifiedIndexDigest("historical");
  };
  auto call_failed = [&client](const char* call, const std::string& message) {
    std::fprintf(stderr, "%s failed: %s\n", call, message.c_str());
    if (client.Stats().retries > 0) {
      std::fprintf(stderr, "(gave up after %llu retries, %llu reconnects)\n",
                   static_cast<unsigned long long>(client.Stats().retries),
                   static_cast<unsigned long long>(client.Stats().reconnects));
    }
    return 1;
  };

  if (what == "tip") {
    auto tip = client.FetchTip();
    if (!tip.ok()) return call_failed("tip fetch", tip.message());
    const auto digest = certified_digest(tip.value());
    if (!digest) return 1;
    std::printf("tip height:    %llu\n",
                static_cast<unsigned long long>(tip.value().header.height));
    std::printf("header hash:   %s\n",
                tip.value().header.Hash().ToHex().c_str());
    std::printf("index digest:  %s\n", digest->ToHex().c_str());
    std::printf("certificates:  VALID (block + index, measurement pinned)\n");
    return 0;
  }
  auto reply = what == "hist" ? client.Historical(account, from, to)
                              : client.Aggregate(account, from, to);
  if (!reply.ok()) return call_failed("query", reply.message());
  const auto digest = certified_digest(reply.value().tip);
  if (!digest) return 1;
  if (what == "hist") {
    auto versions = query::HistoricalIndex::VerifyQuery(
        *digest, account, from, to, reply.value().proof);
    if (!versions.ok()) {
      std::fprintf(stderr, "PROOF REJECTED: %s\n", versions.message().c_str());
      return 1;
    }
    std::printf("account %llu, blocks [%llu, %llu]: %zu version(s), "
                "proof VERIFIED against certified digest\n",
                static_cast<unsigned long long>(account),
                static_cast<unsigned long long>(from),
                static_cast<unsigned long long>(to),
                versions.value().size());
    for (const auto& v : versions.value()) {
      std::printf("  block %6llu  value %llu\n",
                  static_cast<unsigned long long>(v.block_height),
                  static_cast<unsigned long long>(v.value));
    }
    return 0;
  }
  auto agg = query::HistoricalIndex::VerifyAggregateQuery(
      *digest, account, from, to, reply.value().proof);
  if (!agg.ok()) {
    std::fprintf(stderr, "PROOF REJECTED: %s\n", agg.message().c_str());
    return 1;
  }
  std::printf("account %llu, blocks [%llu, %llu]: count=%llu sum=%llu, "
              "proof VERIFIED against certified digest\n",
              static_cast<unsigned long long>(account),
              static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(to),
              static_cast<unsigned long long>(agg.value().count),
              static_cast<unsigned long long>(agg.value().sum));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "measure") return CmdMeasure();
  if (cmd == "keygen" && argc >= 3) return CmdKeygen(argv[2]);
  if (cmd == "demo") {
    const auto blocks = argc >= 3 ? ParseInt(argv[2], 1, 1 << 20)
                                  : std::optional<int>(5);
    const auto txs = argc >= 4 ? ParseInt(argv[3], 1, 1 << 20)
                               : std::optional<int>(10);
    if (!blocks || !txs) return Usage();
    return CmdDemo(*blocks, *txs);
  }
  if (cmd == "mine-store" && argc >= 4) {
    const auto blocks = ParseInt(argv[3], 1, 1 << 20);
    if (!blocks) return Usage();
    return CmdMineStore(argv[2], *blocks);
  }
  if (cmd == "verify-store" && argc >= 3) return CmdVerifyStore(argv[2]);
  if (cmd == "fsck" && argc >= 3) {
    return CmdFsck(argv[2], argc >= 4 ? argv[3] : "");
  }
  if (cmd == "recover" && argc >= 3) {
    const auto blocks = argc >= 4 ? ParseInt(argv[3], 0, 1 << 20)
                                  : std::optional<int>(5);
    if (!blocks) return Usage();
    return CmdRecover(argv[2], *blocks);
  }
  if (cmd == "checkpoint" && argc >= 3) {
    std::vector<const char*> pos;
    std::uint64_t interval = 4;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--interval" && i + 1 < argc) {
        const auto v = ParseU64(argv[++i]);
        if (!v || *v == 0) return Usage();
        interval = *v;
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown checkpoint flag %s\n", arg.c_str());
        return Usage();
      } else {
        pos.push_back(argv[i]);
      }
    }
    if (pos.empty()) return Usage();
    const auto blocks =
        pos.size() >= 2 ? ParseInt(pos[1], 0, 1 << 20) : std::optional<int>(5);
    if (!blocks) return Usage();
    return CmdCheckpoint(pos[0], *blocks, interval);
  }
  if (cmd == "inspect-cert" && argc >= 3) return CmdInspectCert(argv[2]);
  if (cmd == "serve" && argc >= 3) {
    std::vector<const char*> pos;
    std::string shard_spec;
    std::string ckpt_dir;
    std::uint64_t map_version = 1;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--shard" && i + 1 < argc) {
        shard_spec = argv[++i];
      } else if (arg == "--map-version" && i + 1 < argc) {
        const auto v = ParseU64(argv[++i]);
        if (!v || *v == 0) return Usage();
        map_version = *v;
      } else if (arg == "--ckpt-dir" && i + 1 < argc) {
        ckpt_dir = argv[++i];
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown serve flag %s\n", arg.c_str());
        return Usage();
      } else {
        pos.push_back(argv[i]);
      }
    }
    if (pos.empty()) return Usage();
    const auto port = ParseInt(pos[0], 0, 65535);
    const auto blocks =
        pos.size() >= 2 ? ParseInt(pos[1], 1, 1 << 20) : std::optional<int>(20);
    const auto txs =
        pos.size() >= 3 ? ParseInt(pos[2], 1, 1 << 20) : std::optional<int>(8);
    if (!port || !blocks || !txs) return Usage();
    return CmdServe(*port, *blocks, *txs, shard_spec, map_version, ckpt_dir);
  }
  if (cmd == "query" && argc >= 3) return CmdQuery(argv[2], argc, argv);
  if (cmd == "fleet-query") return CmdFleetQuery(argc, argv);
  if (cmd == "stats" && argc >= 3) {
    std::vector<std::string> targets;
    std::string format;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (!arg.empty() && arg[0] == '-') {
        if (!format.empty()) return Usage();
        format = arg;
      } else {
        targets.push_back(arg);
      }
    }
    if (targets.empty()) return Usage();
    return CmdStats(targets, format);
  }
  if (cmd == "fleet-health") {
    std::vector<std::string> targets;
    std::string evidence;
    std::optional<std::uint32_t> release;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--evidence" && i + 1 < argc) {
        evidence = argv[++i];
      } else if (arg == "--release" && i + 1 < argc) {
        const auto r = ParseU64(argv[++i]);
        if (!r || *r > 0xffffffffULL) return Usage();
        release = static_cast<std::uint32_t>(*r);
      } else if (!arg.empty() && arg[0] == '-') {
        std::fprintf(stderr, "unknown fleet-health flag %s\n", arg.c_str());
        return Usage();
      } else {
        targets.push_back(arg);
      }
    }
    return CmdFleetHealth(targets, evidence, release);
  }
  return Usage();
}
