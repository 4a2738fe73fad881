#include "fixture.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "dcert/enclave_program.h"
#include "query/extraction.h"
#include "trace.h"

namespace perfbench {

using namespace dcert;

namespace {
constexpr std::size_t kSenders = 100;  // funded sender accounts
constexpr int kTamperTrials = 64;
}  // namespace

ChainMiner::ChainMiner(std::uint64_t seed, std::size_t txs,
                       std::uint64_t kv_keys)
    : txs_(txs), pool_(kSenders, seed) {
  chain_.config.difficulty_bits = 4;
  chain_.registry = workloads::MakeBlockbenchRegistry(4);
  node_ = std::make_unique<chain::FullNode>(chain_.config, chain_.registry);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kKvStore;
  params.seed = seed;
  params.instances_per_workload = 4;
  params.kv_keys = kv_keys;
  gen_ = std::make_unique<workloads::WorkloadGenerator>(params, pool_);
}

ChainMiner::~ChainMiner() = default;

void ChainMiner::MineNext() {
  const chain::Miner miner(*node_);
  auto blk = miner.MineBlock(
      gen_->NextBlockTxs(txs_),
      chain_.config.genesis_timestamp + (node_->Height() + 1) * 15);
  if (!blk.ok()) throw std::runtime_error("mine: " + blk.message());
  if (Status st = node_->SubmitBlock(blk.value()); !st) {
    throw std::runtime_error("mine submit: " + st.message());
  }
  chain_.blocks.push_back(std::move(blk.value()));
}

MinedChain MineChain(std::uint64_t seed, std::size_t blocks, std::size_t txs,
                     std::uint64_t kv_keys) {
  ChainMiner miner(seed, txs, kv_keys);
  for (std::size_t i = 0; i < blocks; ++i) miner.MineNext();
  return miner.chain();
}

Certifier::Certifier(const MinedChain& chain)
    : ci_(chain.config, chain.registry),
      index_(std::make_shared<query::HistoricalIndex>(kIndexId)),
      ecalls_(obs::MetricsRegistry::Global().GetCounter("sgx.ecalls")),
      ecall_bytes_(
          obs::MetricsRegistry::Global().GetCounter("sgx.ecall_input_bytes")) {
  ci_.AttachIndex(index_);
}

Result<svc::AnnounceRequest> Certifier::Certify(const chain::Block& blk,
                                                std::uint64_t id) {
  using R = Result<svc::AnnounceRequest>;
  const bool traced = Tracer::Enabled();
  const std::uint64_t ecalls0 = traced ? ecalls_->Value() : 0;
  const std::uint64_t bytes0 = traced ? ecall_bytes_->Value() : 0;
  Result<std::vector<core::IndexCertificate>> icerts =
      Status::Error("not certified");
  {
    ScopedSpan span("dcert.certify", id);
    icerts = ci_.ProcessBlockHierarchical(blk);
  }
  if (!icerts.ok()) return R::Error("certify: " + icerts.message());
  if (icerts.value().size() != 1 || !ci_.LatestCert().has_value()) {
    return R::Error("certify: missing certificate");
  }
  if (traced) {
    const core::CertTiming& t = ci_.LastTiming();
    Tracer::Sample("chain.rwset_ms", static_cast<double>(t.rwset_ns) / 1e6);
    Tracer::Sample("chain.commit_ms", static_cast<double>(t.commit_ns) / 1e6);
    Tracer::Sample("sgxsim.enclave_wall_ms",
                   static_cast<double>(t.enclave_wall_ns) / 1e6);
    Tracer::Sample("sgxsim.enclave_modeled_ms",
                   static_cast<double>(t.enclave_modeled_ns) / 1e6);
    Tracer::Sample("mht.update_proof_ms",
                   static_cast<double>(t.proof_ns) / 1e6);
    Tracer::Sample("query.index_aux_ms",
                   static_cast<double>(t.index_aux_ns) / 1e6);
    Tracer::Sample("sgxsim.ecalls_per_block",
                   static_cast<double>(ecalls_->Value() - ecalls0));
    Tracer::Sample("sgxsim.ecall_input_bytes_per_block",
                   static_cast<double>(ecall_bytes_->Value() - bytes0));
  }
  svc::AnnounceRequest ann;
  ann.block = blk;
  ann.block_cert = *ci_.LatestCert();
  ann.index_digest = index_->CurrentDigest();
  ann.index_cert = icerts.value()[0];
  return ann;
}

void Truth::Add(const chain::Block& blk) {
  for (const query::HistEntry& e : query::ExtractHistoricalWrites(blk)) {
    by_account_[e.account_word].push_back(
        {e.version, query::VersionHeight(e.version), e.value_word});
  }
}

std::vector<query::HistoricalVersion> Truth::Historical(
    std::uint64_t account, std::uint64_t from, std::uint64_t to) const {
  std::vector<query::HistoricalVersion> out;
  auto it = by_account_.find(account);
  if (it == by_account_.end()) return out;
  for (const query::HistoricalVersion& v : it->second) {
    if (v.block_height >= from && v.block_height <= to) out.push_back(v);
  }
  return out;
}

mht::MbAggregate Truth::Aggregate(std::uint64_t account, std::uint64_t from,
                                  std::uint64_t to) const {
  mht::MbAggregate agg;
  for (const query::HistoricalVersion& v : Historical(account, from, to)) {
    agg.count += 1;
    agg.sum += v.value;
  }
  return agg;
}

std::vector<std::uint64_t> Truth::Accounts() const {
  std::vector<std::uint64_t> out;
  for (const auto& [account, versions] : by_account_) out.push_back(account);
  return out;
}

void CertChainDigest::Add(const svc::AnnounceRequest& ann) {
  const Bytes block_cert = ann.block_cert.Serialize();
  const Bytes index_cert = ann.index_cert.Serialize();
  h_.Update(block_cert);
  h_.Update(index_cert);
  h_.Update(ann.index_digest.View());
}

std::string CertChainDigest::Hex() { return h_.Finalize().ToHex(); }

std::string ValidateCertified(core::SuperlightClient& light,
                              const chain::BlockHeader& hdr,
                              const core::BlockCertificate& block_cert,
                              const Hash256& index_digest,
                              const core::IndexCertificate& index_cert,
                              std::uint64_t id) {
  ScopedSpan span("dcert.superlight.validate", id);
  if (Status st = light.ValidateAndAccept(hdr, block_cert); !st) {
    return "block certificate rejected: " + st.message();
  }
  if (Status st =
          light.AcceptIndexCert(hdr, index_cert, index_digest, kIndexId);
      !st) {
    return "index certificate rejected: " + st.message();
  }
  return "";
}

std::string FetchCertifiedTip(svc::SpClient& client, Hash256* digest,
                              std::uint64_t* height) {
  auto tip = client.FetchTip();
  if (!tip.ok()) return "tip fetch failed: " + tip.message();
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  const svc::TipInfo& t = tip.value();
  if (std::string err = ValidateCertified(light, t.header, t.block_cert,
                                          t.index_digest, t.index_cert,
                                          t.header.height);
      !err.empty()) {
    return err;
  }
  *digest = *light.CertifiedIndexDigest(kIndexId);
  *height = t.header.height;
  return "";
}

namespace {

/// Verifies `proof` for `q`; on success returns "" and stores what it proved.
std::string Verify(const Hash256& digest, const svc::QueryRequest& q,
                   const query::HistoricalQueryProof& proof,
                   std::vector<query::HistoricalVersion>* versions,
                   mht::MbAggregate* agg) {
  if (q.op == svc::Op::kAggregate) {
    auto r = query::HistoricalIndex::VerifyAggregateQuery(
        digest, q.account, q.from_height, q.to_height, proof);
    if (!r.ok()) return r.message();
    *agg = r.value();
    return "";
  }
  auto r = query::HistoricalIndex::VerifyQuery(digest, q.account, q.from_height,
                                               q.to_height, proof);
  if (!r.ok()) return r.message();
  *versions = std::move(r.value());
  return "";
}

}  // namespace

std::string CheckReply(const Truth& truth, const Hash256& digest,
                       const svc::QueryRequest& q,
                       const query::HistoricalQueryProof& proof,
                       std::uint64_t id) {
  std::vector<query::HistoricalVersion> versions;
  mht::MbAggregate agg;
  std::string err;
  {
    ScopedSpan span("query.verify", id);
    err = Verify(digest, q, proof, &versions, &agg);
  }
  if (!err.empty()) return "verification failed: " + err;
  if (q.op == svc::Op::kAggregate) {
    const mht::MbAggregate want =
        truth.Aggregate(q.account, q.from_height, q.to_height);
    if (agg.count != want.count || agg.sum != want.sum) {
      return "aggregate differs from ground truth";
    }
  } else if (versions != truth.Historical(q.account, q.from_height,
                                          q.to_height)) {
    return "historical result differs from ground truth";
  }
  return "";
}

namespace {

/// First leaf entry carrying a value, depth-first; null when none.
mht::MbProofNode::LeafEntry* FirstValue(mht::MbProofNode* n) {
  if (n == nullptr) return nullptr;
  for (auto& e : n->entries) {
    if (e.value.has_value()) return &e;
  }
  for (auto& c : n->children) {
    if (auto* e = FirstValue(c.node.get())) return e;
  }
  return nullptr;
}

}  // namespace

std::string TamperControl(const Hash256& digest, const svc::QueryRequest& q,
                          const query::HistoricalQueryProof& proof,
                          std::uint64_t seed, int trials,
                          std::uint64_t* noncanonical) {
  std::vector<query::HistoricalVersion> want_versions, versions;
  mht::MbAggregate want_agg, agg;
  if (std::string err = Verify(digest, q, proof, &want_versions, &want_agg);
      !err.empty()) {
    return "control reply does not verify untampered: " + err;
  }
  const Bytes wire = proof.Serialize();
  auto accepted = [&](const Bytes& bytes) {
    auto decoded = query::HistoricalQueryProof::Deserialize(bytes);
    return decoded.ok() &&
           Verify(digest, q, decoded.value(), &versions, &agg).empty();
  };
  Rng rng(seed ^ 0x7a3be5ULL);

  // Targeted tampers, each of which must be rejected. (1) One bit of the
  // claimed lower-tree root: the account's MPT proof binds it.
  if (proof.account_present) {
    const std::size_t root_at =
        4 + proof.account_proof.Serialize().size() + 1;  // blob, flag
    Bytes bad = wire;
    bad[root_at + rng.NextBelow(Hash256::kSize)] ^= 1;
    if (accepted(bad)) return "reply with a flipped lower-tree root accepted";
  }
  // (2) A forged version value, re-encoded consistently (value, its hash and
  // its word): only the tree hashes above it can expose it.
  query::HistoricalQueryProof forged =
      query::HistoricalQueryProof::Deserialize(wire).value();
  if (auto* e = FirstValue(forged.range_proof.root.get())) {
    e->value = query::HistValueBytes(query::HistValueWord(*e->value) + 1);
    e->value_hash = crypto::Sha256::Digest(*e->value);
    e->value_word = mht::MbValueWord(*e->value);
    if (accepted(forged.Serialize())) {
      return "reply with a forged value accepted";
    }
  }

  // Random single-byte corruptions must never verify to a different answer.
  // Some proof fields are redundant by design (e.g. the declared summary of
  // an expanded subtree, which the verifier recomputes); a corruption there
  // verifies to the same answer and is counted, not failed.
  for (int i = 0; i < trials; ++i) {
    Bytes bad = wire;
    const std::size_t pos = rng.NextBelow(bad.size());
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    if (!accepted(bad)) continue;
    const bool same =
        q.op == svc::Op::kAggregate
            ? agg.count == want_agg.count && agg.sum == want_agg.sum
            : versions == want_versions;
    if (!same) {
      return "corrupted reply (byte " + std::to_string(pos) + " of " +
             std::to_string(bad.size()) + ") verified to a different answer";
    }
    ++*noncanonical;
  }
  return "";
}

namespace {

std::string SpotCheckQueries(svc::SpClient& client, const Truth& truth,
                             std::uint64_t seed, int queries,
                             std::uint64_t min_height,
                             std::uint64_t* noncanonical) {
  Hash256 digest;
  std::uint64_t tip = 0;
  if (std::string err = FetchCertifiedTip(client, &digest, &tip);
      !err.empty()) {
    return err;
  }
  const std::vector<std::uint64_t> accounts = truth.Accounts();
  if (accounts.empty() || tip < min_height) return "empty chain";
  Rng rng(seed ^ 0x5907c4ecULL);
  for (int i = 0; i < queries; ++i) {
    svc::QueryRequest q;
    q.op = i % 3 == 2 ? svc::Op::kAggregate : svc::Op::kHistorical;
    q.account = accounts[rng.NextBelow(accounts.size())];
    q.to_height = rng.NextRange(min_height, tip);
    q.from_height = rng.NextRange(min_height, q.to_height);
    if (i == 0) {
      // The control reply: the whole window of the account with the most
      // versions in it.
      q.op = svc::Op::kHistorical;
      q.from_height = min_height;
      q.to_height = tip;
      std::size_t most = 0;
      for (std::uint64_t a : accounts) {
        const std::size_t n = truth.Historical(a, min_height, tip).size();
        if (n > most) {
          most = n;
          q.account = a;
        }
      }
    }
    auto reply = q.op == svc::Op::kAggregate
                     ? client.Aggregate(q.account, q.from_height, q.to_height)
                     : client.Historical(q.account, q.from_height, q.to_height);
    if (!reply.ok()) return "query failed: " + reply.message();
    if (std::string err = CheckReply(truth, digest, q, reply.value().proof, i);
        !err.empty()) {
      return err;
    }
    if (i == 0) {
      if (std::string err = TamperControl(digest, q, reply.value().proof, seed,
                                          kTamperTrials, noncanonical);
          !err.empty()) {
        return "negative control: " + err;
      }
    }
  }
  return "";
}

}  // namespace

void SpotCheck(Report& r, svc::SpClient& client, const Truth& truth,
               std::uint64_t seed, int queries, std::uint64_t min_height) {
  std::uint64_t noncanonical = 0;
  const std::string err =
      SpotCheckQueries(client, truth, seed, queries, min_height, &noncanonical);
  if (!err.empty()) r.Fail("spot check: " + err);
  r.info["negative_control"] = err.empty() ? "rejected" : "see problems";
  r.info["tamper_noncanonical_accepted"] = std::to_string(noncanonical);
}

}  // namespace perfbench
