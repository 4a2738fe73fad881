// Certify each block once: batched transaction-signature checking
// (VerifyTxSignatures) agrees with per-tx verification, signatures are
// enforced on every trusted and validating path although the CI's host
// pre-processing skips them, the CI commits the prepared write set through
// FullNode::AppendExecuted (apply, compare, roll back on a mismatch), block
// bodies are shared between copies, IndexSigGen checks its two certificates
// in one signature batch with the sequential error order, the enclave checks
// the CI's report signature once, an SP's HistoricalIndex::ApplyBlock
// matches the aux-capturing apply, an Ecall's input bytes are the serialized
// sizes, the issuer's certification pipeline commits nothing for a block any
// Ecall or digest check refuses, the paths that would leave an attached
// index behind refuse, and a forged state-tree proof cannot get a
// non-canonical state root certified.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "chain/consensus.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "dcert/certificate.h"
#include "dcert/enclave_program.h"
#include "dcert/issuer.h"
#include "dcert/naive_enclave.h"
#include "dcert/update_proof.h"
#include "obs/metrics.h"
#include "query/extraction.h"
#include "query/historical_index.h"
#include "workloads/workloads.h"

namespace dcert::core {
namespace {

using workloads::AccountPool;
using workloads::Workload;
using workloads::WorkloadGenerator;

// --- VerifyTxSignatures vs per-tx Transaction::VerifySignature --------------

/// Breaks tx `i`'s signature, cycling through four kinds of damage: a bumped
/// s, a payload edit the signature does not cover, an r with no curve point
/// (caught by VerifyBatch's structural screen), and another sender's key.
void Corrupt(std::vector<chain::Transaction>& txs, std::size_t i,
             const crypto::PublicKey& other_key) {
  chain::Transaction& tx = txs[i];
  switch (i % 4) {
    case 0:
      tx.signature.s = crypto::Curve().Fn().Add(tx.signature.s, crypto::U256(1));
      break;
    case 1:
      tx.calldata.push_back(0xdead);
      break;
    case 2:
      tx.signature.r = crypto::Curve().P();  // not a field element
      break;
    default:
      tx.sender = other_key;
      break;
  }
}

/// Index of the first tx per-tx verification rejects, or txs.size().
std::size_t FirstBadPerTx(const std::vector<chain::Transaction>& txs) {
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (!txs[i].VerifySignature().ok()) return i;
  }
  return txs.size();
}

void ExpectAgrees(const std::vector<chain::Transaction>& txs,
                  std::size_t first_bad) {
  Status st = chain::VerifyTxSignatures(txs);
  if (first_bad == txs.size()) {
    EXPECT_TRUE(st.ok()) << st.message();
  } else {
    ASSERT_FALSE(st.ok()) << "n=" << txs.size() << " first bad " << first_bad;
    EXPECT_EQ(st.message().rfind("tx " + std::to_string(first_bad) + ": ", 0), 0u)
        << st.message();
  }
}

struct SignedTxs {
  AccountPool pool{16, 77};
  std::vector<chain::Transaction> txs;
  SignedTxs() {
    Rng rng(78);
    for (std::size_t i = 0; i < 100; ++i) {
      txs.push_back(pool.MakeTx(rng.NextBelow(pool.size()), 3000,
                                {1, rng.NextBelow(64), rng.NextBelow(1000)}));
    }
  }
};

TEST(VerifyTxSignaturesTest, AgreesWithPerTxVerifyOnSeededBlocks) {
  const SignedTxs s;
  const crypto::PublicKey& other = s.pool.PublicKeyAt(0);
  Rng rng(79);
  for (std::size_t n : {1, 2, 3, 7, 8, 9, 15, 16, 17, 20, 21, 24, 25, 26, 33,
                        50, 64, 99, 100}) {
    std::vector<chain::Transaction> base(s.txs.begin(), s.txs.begin() + n);
    std::vector<std::set<std::size_t>> patterns = {
        {}, {0}, {n / 2}, {n - 1}, {0, n / 2, n - 1},
        {rng.NextBelow(n), rng.NextBelow(n), rng.NextBelow(n)}};
    for (const std::set<std::size_t>& bad : patterns) {
      std::vector<chain::Transaction> txs = base;
      for (std::size_t i : bad) {
        // Never swap in the tx's own key (that would not break it).
        Corrupt(txs, i, txs[i].sender == other ? s.pool.PublicKeyAt(1) : other);
      }
      const std::size_t first_bad = FirstBadPerTx(txs);
      EXPECT_EQ(first_bad, bad.empty() ? n : *bad.begin());
      ExpectAgrees(txs, first_bad);
    }
  }
}

TEST(VerifyTxSignaturesTest, NamesEveryPositionOfAFullBlock) {
  // One bad signature at every position of a 100-tx block covers every
  // chunk edge whatever the pool size; a second one after it must not
  // change the answer.
  const SignedTxs s;
  ASSERT_EQ(FirstBadPerTx(s.txs), s.txs.size());
  EXPECT_TRUE(chain::VerifyTxSignatures(s.txs).ok());
  EXPECT_TRUE(chain::VerifyTxSignatures({}).ok());
  for (std::size_t i = 0; i < s.txs.size(); ++i) {
    std::vector<chain::Transaction> txs = s.txs;
    const crypto::PublicKey& other =
        txs[i].sender == s.pool.PublicKeyAt(0) ? s.pool.PublicKeyAt(1)
                                               : s.pool.PublicKeyAt(0);
    Corrupt(txs, i, other);
    ASSERT_FALSE(txs[i].VerifySignature().ok());
    ExpectAgrees(txs, i);
    if (i + 37 < txs.size()) {
      Corrupt(txs, i + 37, other);
      ExpectAgrees(txs, i);
    }
  }
}

// --- block bodies --------------------------------------------------------------

TEST(TxListTest, CopiesShareTheBodyAndMutableCopiesOnWrite) {
  const SignedTxs s;
  chain::Block a;
  EXPECT_TRUE(a.txs.empty());
  a.txs = std::vector<chain::Transaction>(s.txs.begin(), s.txs.begin() + 4);
  chain::Block b = a;
  const std::vector<chain::Transaction>& a_body = a.txs;
  const std::vector<chain::Transaction>& b_body = b.txs;
  EXPECT_EQ(&a_body, &b_body);  // one body, two blocks

  b.txs.Mutable().pop_back();
  EXPECT_EQ(a.txs.size(), 4u);  // the original is untouched
  EXPECT_EQ(b.txs.size(), 3u);
  const std::vector<chain::Transaction>& b_after = b.txs;
  EXPECT_NE(&a_body, &b_after);

  // A sole owner edits in place.
  b.txs.Mutable().pop_back();
  const std::vector<chain::Transaction>& b_sole = b.txs;
  EXPECT_EQ(&b_after, &b_sole);
  EXPECT_EQ(b.txs.size(), 2u);

  auto decoded = chain::Block::Deserialize(a.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value().Serialize(), a.Serialize());
}

// --- refusal of a bad-signature block ---------------------------------------

constexpr std::size_t kBadTx = 3;

struct Rig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::unique_ptr<CertificateIssuer> ci;
  std::shared_ptr<query::HistoricalIndex> index;
  std::unique_ptr<chain::FullNode> miner_node;
  std::unique_ptr<chain::Miner> miner;
  AccountPool pool{6, 41};
  std::unique_ptr<WorkloadGenerator> gen;

  explicit Rig(bool with_index) {
    config.difficulty_bits = 2;
    registry = workloads::MakeBlockbenchRegistry(2);
    ci = std::make_unique<CertificateIssuer>(config, registry);
    if (with_index) {
      index = std::make_shared<query::HistoricalIndex>("historical");
      ci->AttachIndex(index);
    }
    miner_node = std::make_unique<chain::FullNode>(config, registry);
    miner = std::make_unique<chain::Miner>(*miner_node);
    WorkloadGenerator::Params params;
    params.kind = Workload::kKvStore;
    params.instances_per_workload = 2;
    gen = std::make_unique<WorkloadGenerator>(params, pool);
  }

  /// Mines the next valid block (not yet submitted to the miner's node) and
  /// returns it with its transactions.
  chain::Block MineNext() {
    auto block = miner->MineBlock(gen->NextBlockTxs(8), 1000 + miner_node->Height());
    if (!block.ok()) throw std::runtime_error(block.message());
    return block.value();
  }

  void Submit(const chain::Block& blk) {
    if (Status st = miner_node->SubmitBlock(blk); !st) {
      throw std::runtime_error(st.message());
    }
  }
};

/// The valid block's transactions with tx kBadTx's signature broken, in a
/// block that honestly commits to them on top of `node`'s tip: the tx root,
/// the state root (from unchecked execution) and the PoW are recomputed, so
/// only a signature check can refuse it.
chain::Block BadSignatureBlock(const chain::FullNode& node,
                               const chain::Block& valid) {
  std::vector<chain::Transaction> txs = valid.txs;
  txs[kBadTx].signature.s =
      crypto::Curve().Fn().Add(txs[kBadTx].signature.s, crypto::U256(1));
  auto exec = chain::ExecuteBlockTxsUnchecked(txs, node.Registry(), node.State());
  if (!exec) throw std::runtime_error(exec.message());
  chain::Block bad;
  bad.header = valid.header;
  bad.header.state_root = chain::PredictRootAfterWrites(node.State(),
                                                        exec.value().writes);
  bad.header.tx_root = chain::Block::ComputeTxRoot(txs);
  bad.txs = std::move(txs);
  chain::MineNonce(bad.header);
  return bad;
}

void ExpectNamesBadTx(const Status& st) {
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("tx " + std::to_string(kBadTx) + ": "),
            std::string::npos)
      << st.message();
}

/// What a refused block must leave untouched.
struct CiSnapshot {
  std::uint64_t height;
  Hash256 state_root;
  std::optional<BlockCertificate> cert;
  std::optional<IndexCertificate> index_cert;
  Hash256 index_digest;

  static CiSnapshot Of(const Rig& rig) {
    CiSnapshot s{rig.ci->Node().Height(), rig.ci->Node().State().Root(),
                 rig.ci->LatestCert(), std::nullopt, Hash256()};
    if (rig.index) {
      s.index_cert = rig.ci->LatestIndexCert("historical");
      s.index_digest = rig.index->CurrentDigest();
    }
    return s;
  }

  void ExpectSame(const Rig& rig) const {
    const CiSnapshot now = Of(rig);
    EXPECT_EQ(now.height, height);
    EXPECT_EQ(now.state_root, state_root);
    EXPECT_EQ(now.cert, cert);
    EXPECT_EQ(now.index_cert, index_cert);
    EXPECT_EQ(now.index_digest, index_digest);
  }
};

TEST(CertifyOnceTest, HierarchicalRefusesBadSignatureBlockAndCommitsNothing) {
  Rig rig(/*with_index=*/true);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(b1).ok());

  chain::Block b2 = rig.MineNext();
  chain::Block bad = BadSignatureBlock(rig.ci->Node(), b2);
  // The host pre-processing alone would accept it: same writes, same root.
  ASSERT_EQ(bad.header.state_root, b2.header.state_root);
  const CiSnapshot before = CiSnapshot::Of(rig);
  auto refused = rig.ci->ProcessBlockHierarchical(bad);
  ExpectNamesBadTx(refused.status());
  EXPECT_NE(refused.message().find("ecall_sig_gen"), std::string::npos)
      << refused.message();
  before.ExpectSame(rig);

  // The next valid block still certifies on top of the untouched CI.
  rig.Submit(b2);
  auto icerts = rig.ci->ProcessBlockHierarchical(b2);
  ASSERT_TRUE(icerts.ok()) << icerts.message();
  EXPECT_EQ(rig.ci->Node().Height(), 2u);
  EXPECT_EQ(rig.ci->LatestCert()->digest, b2.header.Hash());
  EXPECT_EQ(rig.ci->Node().State().Root(), b2.header.state_root);
}

TEST(CertifyOnceTest, ProcessBlockRefusesBadSignatureBlockAndCommitsNothing) {
  Rig rig(/*with_index=*/false);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  ASSERT_TRUE(rig.ci->ProcessBlock(b1).ok());

  chain::Block b2 = rig.MineNext();
  chain::Block bad = BadSignatureBlock(rig.ci->Node(), b2);
  const CiSnapshot before = CiSnapshot::Of(rig);
  ExpectNamesBadTx(rig.ci->ProcessBlock(bad).status());
  before.ExpectSame(rig);

  rig.Submit(b2);
  auto cert = rig.ci->ProcessBlock(b2);
  ASSERT_TRUE(cert.ok()) << cert.message();
  EXPECT_EQ(rig.ci->Node().Height(), 2u);
}

TEST(CertifyOnceTest, EveryValidatingPathRejectsBadSignatureBlock) {
  Rig rig(/*with_index=*/false);
  chain::Block b1 = rig.MineNext();
  chain::Block bad = BadSignatureBlock(*rig.miner_node, b1);

  // Full-node validation.
  ExpectNamesBadTx(rig.miner_node->SubmitBlock(bad));
  EXPECT_EQ(rig.miner_node->Height(), 0u);

  // The miner refuses to build on the bad transactions.
  std::vector<chain::Transaction> bad_txs = bad.txs;
  ExpectNamesBadTx(rig.miner->MineBlock(bad_txs, 1000).status());

  // The naive in-enclave baseline.
  NaiveCertificateIssuer naive(rig.config, rig.registry);
  ExpectNamesBadTx(naive.ProcessBlock(bad).status());
  EXPECT_EQ(naive.Node().Height(), 0u);

  // A certificate over the bad block from a leaked enclave key passes the
  // envelope check, but the adopting CI's full validation still refuses it.
  const crypto::SecretKey leaked = crypto::SecretKey::FromSeed(StrBytes("dcert-ci-key"));
  ASSERT_EQ(leaked.Public(), rig.ci->EnclaveKey());
  BlockCertificate forged;
  forged.pk_enc = rig.ci->EnclaveKey();
  forged.report = rig.ci->Report();
  forged.digest = bad.header.Hash();
  forged.sig = leaked.Sign(forged.digest);
  ASSERT_TRUE(VerifyCertificateEnvelope(forged, ExpectedEnclaveMeasurement()).ok());
  ExpectNamesBadTx(rig.ci->AcceptBlockWithCert(bad, forged));
  EXPECT_EQ(rig.ci->Node().Height(), 0u);
  EXPECT_FALSE(rig.ci->LatestCert().has_value());

  // The honest block goes through every path.
  rig.Submit(b1);
  EXPECT_TRUE(naive.ProcessBlock(b1).ok());
  EXPECT_TRUE(rig.ci->ProcessBlock(b1).ok());
}

// --- committing the prepared write set --------------------------------------

/// Everything a refused commit must leave as it was.
struct NodeSnapshot {
  std::uint64_t height;
  Hash256 tip_hash;
  Hash256 root;
  std::size_t size;
  chain::StateMap state;

  static NodeSnapshot Of(const chain::FullNode& node) {
    return {node.Height(), node.Tip().header.Hash(), node.State().Root(),
            node.State().Size(), node.State().Snapshot()};
  }

  /// Also compares Load on `touched`, which may name keys the state lacks.
  void ExpectSame(const chain::FullNode& node,
                  const chain::StateMap& touched) const {
    const NodeSnapshot now = Of(node);
    EXPECT_EQ(now.height, height);
    EXPECT_EQ(now.tip_hash, tip_hash);
    EXPECT_EQ(now.root, root);
    EXPECT_EQ(now.size, size);
    EXPECT_EQ(now.state, state);
    for (const auto& [key, value] : touched) {
      auto it = state.find(key);
      EXPECT_EQ(node.State().Load(key), it == state.end() ? 0u : it->second);
    }
  }
};

TEST(FullNodeAppendTest, AppendExecutedRefusesMismatchedWritesAndAppliesNothing) {
  Rig rig(/*with_index=*/false);
  chain::Block b1 = rig.MineNext();
  chain::FullNode& node = *rig.miner_node;
  auto exec = chain::ExecuteBlockTxs(b1.txs, node.Registry(), node.State());
  ASSERT_TRUE(exec.ok()) << exec.message();
  const chain::StateMap& writes = exec.value().writes;
  ASSERT_FALSE(writes.empty());
  const Hash256 root0 = node.State().Root();

  // A write set whose root is not the header's: refused, nothing applied.
  chain::StateMap wrong = writes;
  wrong.begin()->second += 1;
  Status st = node.AppendExecuted(b1, wrong);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("state root"), std::string::npos) << st.message();
  chain::StateMap extra = writes;
  extra.emplace(chain::SlotKey(424242, 1), 7);
  EXPECT_FALSE(node.AppendExecuted(b1, extra).ok());
  EXPECT_FALSE(node.AppendExecuted(b1, {}).ok());
  EXPECT_EQ(node.Height(), 0u);
  EXPECT_EQ(node.State().Root(), root0);
  EXPECT_EQ(node.State().Size(), 0u);
  for (const auto& [key, value] : extra) EXPECT_EQ(node.State().Load(key), 0u);

  // A block that does not extend the tip: refused.
  chain::Block unlinked = b1;
  unlinked.header.height += 1;
  EXPECT_FALSE(node.AppendExecuted(unlinked, writes).ok());
  EXPECT_EQ(node.Height(), 0u);

  // The matching write set appends, exactly as SubmitBlock would have.
  ASSERT_TRUE(node.AppendExecuted(b1, writes).ok());
  EXPECT_EQ(node.Height(), 1u);
  EXPECT_EQ(node.State().Root(), b1.header.state_root);
  chain::FullNode full(rig.config, rig.registry);
  ASSERT_TRUE(full.SubmitBlock(b1).ok());
  EXPECT_EQ(full.State().Snapshot(), node.State().Snapshot());

  // Past genesis, a mismatched write set that changes a key, erases a held
  // key (a write of 0) and creates a key is rolled back exactly.
  chain::Block b2 = rig.MineNext();
  auto exec2 = chain::ExecuteBlockTxs(b2.txs, node.Registry(), node.State());
  ASSERT_TRUE(exec2.ok()) << exec2.message();
  const chain::StateMap& writes2 = exec2.value().writes;
  const NodeSnapshot before = NodeSnapshot::Of(node);
  ASSERT_GE(before.state.size(), 2u);
  chain::StateMap wrong2 = writes2;
  wrong2.begin()->second += 1;
  wrong2[std::prev(before.state.end())->first] = 0;
  wrong2[chain::SlotKey(424242, 2)] = 9;
  st = node.AppendExecuted(b2, wrong2);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "state root mismatch after execution");
  before.ExpectSame(node, wrong2);
  // Erasing alone is rolled back too.
  chain::StateMap erase_only{{before.state.begin()->first, 0}};
  EXPECT_FALSE(node.AppendExecuted(b2, erase_only).ok());
  before.ExpectSame(node, erase_only);

  // The same through SubmitBlock: a block whose header claims another state
  // root executes, mismatches and leaves the node as it was.
  chain::Block lying = b2;
  lying.header.state_root = root0;
  chain::MineNonce(lying.header);
  st = node.SubmitBlock(lying);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "state root mismatch after execution");
  before.ExpectSame(node, writes2);

  // The next valid block still appends, and so does the one after it.
  ASSERT_TRUE(node.AppendExecuted(b2, writes2).ok());
  EXPECT_EQ(node.State().Root(), b2.header.state_root);
  ASSERT_TRUE(full.SubmitBlock(b2).ok());
  EXPECT_EQ(full.State().Snapshot(), node.State().Snapshot());
  chain::Block b3 = rig.MineNext();
  ASSERT_TRUE(node.SubmitBlock(b3).ok());
  EXPECT_EQ(node.Height(), 3u);
}

// --- IndexSigGen: two certificates, one signature batch ----------------------

/// Everything IndexSigGen needs to certify the index over block 2 of a rig
/// chain: the previous index certificate (block 1), block 2's certificate
/// and the aux proof, plus a program with the CI's key.
struct IndexStep {
  Rig rig{/*with_index=*/true};
  crypto::SecretKey key = crypto::SecretKey::FromSeed(StrBytes("dcert-ci-key"));
  chain::Block b1, b2;
  IndexCertificate prev_icert;
  Hash256 prev_digest;
  BlockCertificate block_cert;
  Bytes aux;
  std::unique_ptr<CertEnclaveProgram> program;

  IndexStep() {
    b1 = rig.MineNext();
    rig.Submit(b1);
    auto icerts = rig.ci->ProcessBlockHierarchical(b1);
    if (!icerts.ok()) throw std::runtime_error(icerts.message());
    prev_icert = icerts.value().at(0);
    prev_digest = rig.index->CurrentDigest();
    b2 = rig.MineNext();
    block_cert = Cert(b2.header.Hash());
    query::HistoricalIndex shadow;
    shadow.ApplyBlock(b1);
    aux = shadow.ApplyBlockCapturingAux(b2);
    EnclaveConfig ec;
    ec.genesis_hash = chain::MakeGenesisBlock(rig.config).header.Hash();
    ec.registry_digest = rig.registry->Digest();
    ec.difficulty_bits = rig.config.difficulty_bits;
    program = std::make_unique<CertEnclaveProgram>(ec, rig.registry,
                                                   StrBytes("dcert-ci-key"));
  }

  /// A certificate over `digest` from the CI's enclave.
  BlockCertificate Cert(const Hash256& digest) const {
    BlockCertificate c;
    c.pk_enc = key.Public();
    c.report = rig.ci->Report();
    c.digest = digest;
    c.sig = key.Sign(digest);
    return c;
  }

  Status Run(const IndexCertificate& prev, const BlockCertificate& blk) const {
    Hash256 out;
    return program
        ->IndexSigGen(b1.header, prev, prev_digest, b2, blk,
                      rig.index->Verifier(), aux, out)
        .status();
  }
};

/// One faulted field of a certificate and the refusal it must produce.
struct EnvelopeFault {
  const char* field;
  std::string message;
  std::function<void(const IndexStep&, BlockCertificate&)> apply;
};

std::vector<EnvelopeFault> EnvelopeFaults() {
  const auto bump = [](crypto::Signature& sig) {
    sig.s = crypto::Curve().Fn().Add(sig.s, crypto::U256(1));
  };
  return {
      {"IAS signature", "cert_verify_t: attestation report is not signed by the IAS",
       [bump](const IndexStep&, BlockCertificate& c) { bump(c.report.ias_signature); }},
      {"cert signature", "cert_verify_t: certificate signature invalid",
       [bump](const IndexStep&, BlockCertificate& c) { bump(c.sig); }},
      {"measurement", "cert_verify_t: certificate enclave measurement mismatch",
       [](const IndexStep&, BlockCertificate& c) {
         c.report = sgxsim::AttestationService::Attest(
             sgxsim::Enclave("other-enclave", kEnclaveProgramVersion)
                 .MakeQuote(KeyBindingReportData(c.pk_enc)));
       }},
      {"key binding",
       "cert_verify_t: enclave key does not match the attestation report",
       [](const IndexStep&, BlockCertificate& c) {
         c.report = sgxsim::AttestationService::Attest(
             sgxsim::Enclave(kEnclaveProgramName, kEnclaveProgramVersion)
                 .MakeQuote(KeyBindingReportData(
                     crypto::SecretKey::FromSeed(StrBytes("other")).Public())));
       }},
      {"digest", "cert_verify_t: certificate digest mismatch",
       [](const IndexStep& step, BlockCertificate& c) {
         c = step.Cert(crypto::Sha256::Digest(StrBytes("another digest")));
       }},
  };
}

TEST(IndexSigGenEnvelopeTest, EachFaultedFieldIsRefusedWithTheSequentialMessage) {
  const IndexStep step;
  ASSERT_TRUE(step.Run(step.prev_icert, step.block_cert).ok());
  const std::vector<EnvelopeFault> faults = EnvelopeFaults();
  for (const EnvelopeFault& f : faults) {
    IndexCertificate prev = step.prev_icert;
    f.apply(step, prev);
    Status st = step.Run(prev, step.block_cert);
    EXPECT_EQ(st.message(), f.message) << "previous index cert, " << f.field;

    BlockCertificate blk = step.block_cert;
    f.apply(step, blk);
    st = step.Run(step.prev_icert, blk);
    EXPECT_EQ(st.message(), f.message) << "block cert, " << f.field;

    // With both faulted, the previous index certificate's error comes first.
    for (const EnvelopeFault& g : faults) {
      BlockCertificate blk_g = step.block_cert;
      g.apply(step, blk_g);
      st = step.Run(prev, blk_g);
      EXPECT_EQ(st.message(), f.message)
          << "previous " << f.field << " and block " << g.field;
    }
  }
}

// --- HistoricalIndex::ApplyBlock vs ApplyBlockCapturingAux -------------------

TEST(HistoricalApplyBlockTest, MatchesCapturingAuxOverSeededKvChain) {
  Rig rig(/*with_index=*/false);
  query::HistoricalIndex plain, capturing;
  std::set<std::uint64_t> accounts;
  constexpr std::uint64_t kBlocks = 30;
  for (std::uint64_t h = 1; h <= kBlocks; ++h) {
    chain::Block blk = rig.MineNext();
    rig.Submit(blk);
    for (const query::HistEntry& e : query::ExtractHistoricalWrites(blk)) {
      accounts.insert(e.account_word);
    }
    plain.ApplyBlock(blk);
    EXPECT_FALSE(capturing.ApplyBlockCapturingAux(blk).empty());
    ASSERT_EQ(plain.CurrentDigest(), capturing.CurrentDigest()) << "height " << h;
  }
  ASSERT_GE(accounts.size(), 4u);
  EXPECT_EQ(plain.AccountCount(), capturing.AccountCount());
  EXPECT_EQ(plain.SerializeContent(), capturing.SerializeContent());

  accounts.insert(0xabcdef);  // never written: an absence proof
  Rng rng(2121);
  for (std::uint64_t account : accounts) {
    for (int q = 0; q < 4; ++q) {
      const std::uint64_t from = 1 + rng.NextBelow(kBlocks);
      const std::uint64_t to = from + rng.NextBelow(kBlocks - from + 1);
      EXPECT_EQ(plain.Query(account, from, to).Serialize(),
                capturing.Query(account, from, to).Serialize());
      EXPECT_EQ(plain.AggregateQuery(account, from, to).Serialize(),
                capturing.AggregateQuery(account, from, to).Serialize());
    }
  }
}

// --- Ecall input bytes --------------------------------------------------------

TEST(EcallInputBytesTest, HierarchicalBlockCountsSerializedBlockProofAndAux) {
  Rig rig(/*with_index=*/true);
  auto input_bytes =
      obs::MetricsRegistry::Global().GetCounter("sgx.ecall_input_bytes");
  query::HistoricalIndex shadow;
  for (int i = 0; i < 4; ++i) {
    chain::Block blk = rig.MineNext();
    rig.Submit(blk);
    EXPECT_EQ(blk.ByteSize(), blk.Serialize().size());
    const chain::StateDB& pre = rig.ci->Node().State();
    auto exec = chain::ExecuteBlockTxsUnchecked(blk.txs, *rig.registry, pre);
    ASSERT_TRUE(exec.ok()) << exec.message();
    const StateUpdateProof proof =
        BuildStateUpdateProof(exec.value().reads, exec.value().writes, pre);
    const std::size_t aux_bytes = shadow.ApplyBlockCapturingAux(blk).size();

    // SigGen gets the block and its update proof; IndexSigGen the block and
    // the index aux proof, each counted as its serialized size.
    const std::size_t proof_bytes = proof.Serialize().size();
    ASSERT_EQ(proof.ByteSize(), proof_bytes);
    const std::uint64_t before = input_bytes->Value();
    ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(blk).ok());
    EXPECT_EQ(input_bytes->Value() - before,
              2 * blk.Serialize().size() + proof_bytes + aux_bytes)
        << "height " << blk.header.height;
  }
  chain::Block empty = rig.MineNext();
  empty.txs = std::vector<chain::Transaction>{};
  EXPECT_EQ(empty.ByteSize(), empty.Serialize().size());
}

// --- the certification pipeline: prepare, Ecalls, one commit -----------------

/// A HistoricalIndex host that, once armed, either corrupts the aux proof it
/// hands the enclave or misreports its digest after an apply.
class FaultyHost final : public CertifiedIndexHost {
 public:
  enum class Fault { kCorruptAux, kLieAboutDigest };
  FaultyHost(const std::string& id, Fault fault) : inner_(id), fault_(fault) {}

  std::string Id() const override { return inner_.Id(); }
  const IndexUpdateVerifier& Verifier() const override { return inner_.Verifier(); }
  Hash256 CurrentDigest() const override {
    Hash256 digest = inner_.CurrentDigest();
    if (lying_) digest[0] ^= 1;
    return digest;
  }
  Bytes ApplyBlockCapturingAux(const chain::Block& blk) override {
    Bytes aux = inner_.ApplyBlockCapturingAux(blk);
    if (armed && fault_ == Fault::kCorruptAux) aux.back() ^= 1;
    if (armed && fault_ == Fault::kLieAboutDigest) lying_ = true;
    return aux;
  }

  bool armed = false;

 private:
  query::HistoricalIndex inner_;
  Fault fault_;
  bool lying_ = false;
};

/// A CI certifying two indexes, "idx-a" and "idx-b".
struct TwoIndexRig {
  Rig rig{/*with_index=*/false};
  std::shared_ptr<FaultyHost> a, b;

  explicit TwoIndexRig(FaultyHost::Fault fault = FaultyHost::Fault::kCorruptAux)
      : a(std::make_shared<FaultyHost>("idx-a", fault)),
        b(std::make_shared<FaultyHost>("idx-b", fault)) {
    rig.ci->AttachIndex(a);
    rig.ci->AttachIndex(b);
  }
};

/// What a refused block must leave committed.
struct Committed {
  std::uint64_t height;
  Hash256 state_root;
  std::optional<BlockCertificate> cert;
  std::optional<IndexCertificate> a, b;

  static Committed Of(const CertificateIssuer& ci) {
    return {ci.Node().Height(), ci.Node().State().Root(), ci.LatestCert(),
            ci.LatestIndexCert("idx-a"), ci.LatestIndexCert("idx-b")};
  }

  void ExpectSame(const CertificateIssuer& ci) const {
    const Committed now = Of(ci);
    EXPECT_EQ(now.height, height);
    EXPECT_EQ(now.state_root, state_root);
    EXPECT_EQ(now.cert, cert);
    EXPECT_EQ(now.a, a);
    EXPECT_EQ(now.b, b);
  }
};

void ExpectNames(const Status& st, const std::string& part) {
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(part), std::string::npos) << st.message();
}

TEST(IssuerPipelineTest, HierarchicalSecondIndexRefusedCommitsNothing) {
  TwoIndexRig t;
  CertificateIssuer& ci = *t.rig.ci;
  chain::Block b1 = t.rig.MineNext();
  t.rig.Submit(b1);
  ASSERT_TRUE(ci.ProcessBlockHierarchical(b1).ok());
  ASSERT_TRUE(ci.LatestIndexCert("idx-a").has_value());

  t.b->armed = true;
  chain::Block b2 = t.rig.MineNext();
  const Committed before = Committed::Of(ci);
  ExpectNames(ci.ProcessBlockHierarchical(b2).status(), "index ecall for idx-b");
  before.ExpectSame(ci);

  // The capture advanced both live indexes, which the next block names.
  t.b->armed = false;
  auto again = ci.ProcessBlockHierarchical(b2);
  ExpectNames(again.status(), "live index is not at its certified digest: idx-a");
  EXPECT_EQ(again.message().find("ecall"), std::string::npos) << again.message();
  before.ExpectSame(ci);
}

TEST(IssuerPipelineTest, AugmentedBadSignatureBlockCommitsNothing) {
  TwoIndexRig t;
  CertificateIssuer& ci = *t.rig.ci;
  chain::Block b1 = t.rig.MineNext();
  t.rig.Submit(b1);
  ASSERT_TRUE(ci.ProcessBlockAugmented(b1).ok());
  query::HistoricalIndex shadow;
  shadow.ApplyBlock(b1);
  const Hash256 certified = IndexCertDigest(b1.header.Hash(), shadow.CurrentDigest());

  chain::Block b2 = t.rig.MineNext();
  chain::Block bad = BadSignatureBlock(ci.Node(), b2);
  const Committed before = Committed::Of(ci);
  auto refused = ci.ProcessBlockAugmented(bad);
  ExpectNamesBadTx(refused.status());
  ExpectNames(refused.status(), "augmented ecall for idx-a");
  before.ExpectSame(ci);
  EXPECT_EQ(ci.LatestIndexCert("idx-a")->digest, certified);
  EXPECT_EQ(ci.LatestIndexCert("idx-b")->digest, certified);

  // The refused block's capture left the live indexes ahead: the next valid
  // block is refused before any Ecall, naming the first of them.
  t.rig.Submit(b2);
  auto next = ci.ProcessBlockAugmented(b2);
  ExpectNames(next.status(), "live index is not at its certified digest: idx-a");
  EXPECT_EQ(next.message().find("ecall"), std::string::npos) << next.message();
  before.ExpectSame(ci);
}

TEST(IssuerPipelineTest, LyingHostIsRefusedBeforeCommit) {
  TwoIndexRig t(FaultyHost::Fault::kLieAboutDigest);
  CertificateIssuer& ci = *t.rig.ci;
  chain::Block b1 = t.rig.MineNext();
  t.rig.Submit(b1);
  ASSERT_TRUE(ci.ProcessBlockHierarchical(b1).ok());

  t.b->armed = true;
  chain::Block b2 = t.rig.MineNext();
  const Committed before = Committed::Of(ci);
  ExpectNames(ci.ProcessBlockHierarchical(b2).status(),
              "live index diverged from certified digest: idx-b");
  before.ExpectSame(ci);
}

TEST(IssuerPipelineTest, EveryEcallIsRecordedAsAnEnclaveStage) {
  auto enclave_ns = obs::MetricsRegistry::Global().GetHistogram("ci.stage.enclave_ns");
  for (bool augmented : {false, true}) {
    TwoIndexRig t;
    CertificateIssuer& ci = *t.rig.ci;
    for (int i = 0; i < 3; ++i) {
      chain::Block blk = t.rig.MineNext();
      t.rig.Submit(blk);
      const std::uint64_t before = enclave_ns->Snapshot().count;
      auto certs = augmented ? ci.ProcessBlockAugmented(blk)
                             : ci.ProcessBlockHierarchical(blk);
      ASSERT_TRUE(certs.ok()) << certs.message();
      EXPECT_EQ(ci.LastTiming().ecalls, augmented ? 2u : 3u);
      EXPECT_EQ(enclave_ns->Snapshot().count - before, ci.LastTiming().ecalls)
          << (augmented ? "augmented" : "hierarchical") << " block " << i;
    }
  }
}

TEST(IssuerPipelineTest, ProcessBlockCertifiesAttachedIndexes) {
  Rig rig(/*with_index=*/true);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  ASSERT_TRUE(rig.ci->ProcessBlock(b1).ok());
  const std::optional<IndexCertificate>& icert = rig.ci->LatestIndexCert("historical");
  ASSERT_TRUE(icert.has_value());
  EXPECT_EQ(icert->digest,
            IndexCertDigest(b1.header.Hash(), rig.index->CurrentDigest()));
}

TEST(IssuerPipelineTest, AttachRefusesAnIdAlreadyAttached) {
  Rig rig(/*with_index=*/true);
  EXPECT_THROW(rig.ci->AttachIndex(rig.index), std::invalid_argument);
  EXPECT_THROW(
      rig.ci->AttachIndex(std::make_shared<query::HistoricalIndex>("historical")),
      std::invalid_argument);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(b1).ok());
  const Hash256 digest = rig.index->CurrentDigest();
  ExpectNames(rig.ci->AttachIndexWithBackfill(rig.index).status(),
              "index id already attached: historical");
  EXPECT_FALSE(
      rig.ci->AttachIndexWithBackfill(
                std::make_shared<query::HistoricalIndex>("historical"))
          .ok());
  EXPECT_EQ(rig.index->CurrentDigest(), digest);  // not replayed into
  EXPECT_EQ(rig.ci->IndexCount(), 1u);
  ASSERT_TRUE(
      rig.ci->AttachIndexWithBackfill(std::make_shared<query::HistoricalIndex>("other"))
          .ok());
  EXPECT_EQ(rig.ci->IndexCount(), 2u);
}

// --- paths that would leave an attached index behind -----------------------

/// A certificate for `blk` from another CI running the same enclave program
/// (same key seed), as AcceptBlockWithCert receives one.
BlockCertificate ForeignCert(const Rig& rig, const chain::Block& blk) {
  CertificateIssuer other(rig.config, rig.registry);
  auto cert = other.ProcessBlock(blk);
  if (!cert.ok()) throw std::runtime_error(cert.message());
  return cert.value();
}

TEST(IssuerIndexGapTest, AcceptBlockWithCertRefusedWithAnIndexAttached) {
  Rig rig(/*with_index=*/true);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  const BlockCertificate cert = ForeignCert(rig, b1);
  const CiSnapshot before = CiSnapshot::Of(rig);
  ExpectNames(rig.ci->AcceptBlockWithCert(b1, cert),
              "refused while indexes are attached");
  before.ExpectSame(rig);

  // The CI is not wedged: the block still certifies with its index.
  ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(b1).ok());
  EXPECT_EQ(rig.ci->Node().Height(), 1u);
}

TEST(IssuerIndexGapTest, ProcessBlockBatchRefusedWithAnIndexAttached) {
  Rig rig(/*with_index=*/true);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  chain::Block b2 = rig.MineNext();
  rig.Submit(b2);
  const CiSnapshot before = CiSnapshot::Of(rig);
  ExpectNames(rig.ci->ProcessBlockBatch({b1, b2}).status(),
              "refused while indexes are attached");
  before.ExpectSame(rig);

  ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(b1).ok());
  ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(b2).ok());
  EXPECT_EQ(rig.ci->Node().Height(), 2u);
}

TEST(IssuerIndexGapTest, BackfillRefusesAHostThatIsNotFresh) {
  Rig rig(/*with_index=*/false);
  auto used = std::make_shared<query::HistoricalIndex>("historical");
  for (int i = 0; i < 2; ++i) {
    chain::Block blk = rig.MineNext();
    rig.Submit(blk);
    ASSERT_TRUE(rig.ci->ProcessBlock(blk).ok());
    used->ApplyBlock(blk);
  }
  const Hash256 digest = used->CurrentDigest();
  ExpectNames(rig.ci->AttachIndexWithBackfill(used).status(),
              "backfill needs a fresh index: historical");
  EXPECT_EQ(used->CurrentDigest(), digest);  // not replayed into
  EXPECT_EQ(rig.ci->IndexCount(), 0u);

  // A fresh host under the same id backfills.
  ASSERT_TRUE(
      rig.ci->AttachIndexWithBackfill(
                std::make_shared<query::HistoricalIndex>("historical"))
          .ok());
  EXPECT_EQ(rig.ci->IndexCount(), 1u);
}

TEST(CertifyOnceTest, VerifiedReportsHoldOnlyPairsThatVerified) {
  Rig rig(/*with_index=*/false);
  chain::Block b1 = rig.MineNext();
  rig.Submit(b1);
  auto cert = rig.ci->ProcessBlock(b1);
  ASSERT_TRUE(cert.ok()) << cert.message();
  const Hash256 measurement = ExpectedEnclaveMeasurement();
  const auto check = [&](const BlockCertificate& c, VerifiedReports& memo) {
    const BlockCertificate* one = &c;
    return VerifyCertificateEnvelopesBatch(&one, 1, measurement, &memo)[0];
  };
  const BlockCertificate& good = cert.value();
  BlockCertificate forged = good;
  forged.report.ias_signature.s =
      crypto::Curve().Fn().Add(forged.report.ias_signature.s, crypto::U256(1));
  const Hash256 quote = good.report.quote.Digest();

  // A failed check is never remembered; a passed one is.
  VerifiedReports memo;
  EXPECT_EQ(check(forged, memo).message(),
            "attestation report is not signed by the IAS");
  EXPECT_FALSE(memo.Contains(quote, forged.report.ias_signature));
  EXPECT_TRUE(check(good, memo).ok());
  EXPECT_TRUE(memo.Contains(quote, good.report.ias_signature));
  EXPECT_TRUE(check(good, memo).ok());

  // A pair it holds is not checked again: that is the saving, and why only
  // verified pairs may enter.
  memo.Add(quote, forged.report.ias_signature);
  EXPECT_TRUE(check(forged, memo).ok());

  // Bounded: kCapacity newer pairs evict both.
  for (std::size_t i = 0; i < VerifiedReports::kCapacity; ++i) {
    Hash256 other;
    other[0] = static_cast<std::uint8_t>(i + 1);
    memo.Add(other, good.report.ias_signature);
  }
  EXPECT_FALSE(memo.Contains(quote, good.report.ias_signature));
  EXPECT_FALSE(memo.Contains(quote, forged.report.ias_signature));
}

// --- A forged delete root ----------------------------------------------------
//
// The state tree hashes a one-key subtree as its leaf, so deleting a key whose
// sibling holds one other key lifts that leaf. An update proof that hands the
// sibling over as an opaque hash would let the enclave skip the lift and sign
// a root no honest full node computes.

/// Bits `a` shares with `b` from the top.
int SharedBits(const Hash256& a, const Hash256& b) {
  int i = 0;
  while (i < 256 && a.Bit(static_cast<std::size_t>(i)) ==
                        b.Bit(static_cast<std::size_t>(i))) {
    ++i;
  }
  return i;
}

/// `h` with every bit from `level` on cleared (an SmtNodeId prefix).
Hash256 PrefixOf(Hash256 h, int level) {
  for (int i = level; i < 256; ++i) {
    if (h.Bit(static_cast<std::size_t>(i))) {
      h[static_cast<std::size_t>(i / 8)] ^= static_cast<std::uint8_t>(0x80 >> (i % 8));
    }
  }
  return h;
}

/// The one key beside `key`'s leaf in the tree of `state` (sets `level` to
/// the leaf's level), or nullopt when that sibling holds two or more keys.
std::optional<Hash256> LoneSibling(const chain::StateMap& state,
                                   const Hash256& key, int& level) {
  level = 0;
  for (const auto& [k, v] : state) {
    if (k != key) level = std::max(level, SharedBits(k, key) + 1);
  }
  std::optional<Hash256> lone;
  int n = 0;
  for (const auto& [k, v] : state) {
    if (k != key && SharedBits(k, key) == level - 1) {
      lone = k;
      ++n;
    }
  }
  return n == 1 ? lone : std::nullopt;
}

TEST(SmtForgedDeleteRootTest, EnclaveAndHierarchicalCertificationRefuseIt) {
  Rig rig(/*with_index=*/true);
  const Hash256 deleter_nonce = chain::NonceKey(rig.pool.PublicKeyAt(0));
  chain::Block prev;
  std::uint64_t contract = 0, slot = 0;
  Hash256 sibling;
  int level = 0;
  for (int i = 0; i < 8 && sibling.IsZero(); ++i) {
    prev = rig.MineNext();
    rig.Submit(prev);
    ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(prev).ok());
    const chain::StateMap state = rig.ci->Node().State().Snapshot();
    for (const chain::Transaction& tx : prev.txs) {
      if (tx.calldata.at(0) == 1) continue;  // a KV get writes no slot
      const Hash256 key = chain::SlotKey(tx.contract_id, tx.calldata.at(1));
      auto lone = LoneSibling(state, key, level);
      if (state.count(key) != 0 && lone && *lone != deleter_nonce) {
        contract = tx.contract_id;
        slot = tx.calldata.at(1);
        sibling = *lone;
        break;
      }
    }
  }
  ASSERT_FALSE(sibling.IsZero()) << "no KV slot with a one-key sibling";

  // The honest deletion and its honest update proof.
  auto del = rig.miner->MineBlock({rig.pool.MakeTx(0, contract, {0, slot, 0})},
                                  1000 + rig.miner_node->Height());
  ASSERT_TRUE(del.ok()) << del.message();
  const chain::StateDB& state = rig.ci->Node().State();
  auto exec = chain::ExecuteBlockTxs(del.value().txs, *rig.registry, state);
  ASSERT_TRUE(exec.ok()) << exec.message();
  const StateUpdateProof honest =
      BuildStateUpdateProof(exec.value().reads, exec.value().writes, state);
  ASSERT_EQ(honest.smt_proof.leaves.count(sibling), 1u);

  // The forged proof: the one-key sibling as an opaque hash. Its new root
  // keeps the sibling where it was instead of lifting it.
  StateUpdateProof forged = honest;
  const Hash256 sibling_vh = forged.smt_proof.leaves.at(sibling);
  forged.smt_proof.leaves.erase(sibling);
  forged.smt_proof.siblings[{static_cast<std::uint16_t>(level),
                             PrefixOf(sibling, level)}] =
      mht::SparseMerkleTree::LeafNodeHash(sibling, sibling_vh);
  std::map<Hash256, Hash256> new_leaves = forged.OldLeaves();
  for (const auto& [k, v] : exec.value().writes) {
    new_leaves[k] = chain::StateValueHash(v);
  }
  const Hash256 skewed =
      mht::SparseMerkleTree::ComputeRootFromProof(forged.smt_proof, new_leaves);
  ASSERT_FALSE(skewed.IsZero());
  ASSERT_NE(skewed, del.value().header.state_root);
  chain::Block bad = del.value();
  bad.header.state_root = skewed;
  chain::MineNonce(bad.header);

  // The enclave refuses the forged proof that would certify `bad`.
  EnclaveConfig ec;
  ec.genesis_hash = chain::MakeGenesisBlock(rig.config).header.Hash();
  ec.registry_digest = rig.registry->Digest();
  ec.difficulty_bits = rig.config.difficulty_bits;
  CertEnclaveProgram program(ec, rig.registry, StrBytes("dcert-ci-key"));
  auto sig = program.SigGen(prev.header, rig.ci->LatestCert(), bad, forged);
  ASSERT_FALSE(sig.ok());
  EXPECT_NE(sig.message().find("update proof does not match H_state"),
            std::string::npos)
      << sig.message();
  // With the honest proof, the root it computes is not the header's.
  auto wrong_root = program.SigGen(prev.header, rig.ci->LatestCert(), bad, honest);
  ASSERT_FALSE(wrong_root.ok());
  EXPECT_NE(wrong_root.message().find("updated state root mismatch"),
            std::string::npos)
      << wrong_root.message();
  EXPECT_TRUE(
      program.SigGen(prev.header, rig.ci->LatestCert(), del.value(), honest).ok());

  // The CI proves the block itself and refuses the header's root, committing
  // nothing; the honest deletion then certifies.
  const CiSnapshot before = CiSnapshot::Of(rig);
  auto refused = rig.ci->ProcessBlockHierarchical(bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("state root"), std::string::npos)
      << refused.message();
  before.ExpectSame(rig);
  rig.Submit(del.value());
  ASSERT_TRUE(rig.ci->ProcessBlockHierarchical(del.value()).ok());
  EXPECT_EQ(rig.ci->Node().State().Root(), del.value().header.state_root);
  EXPECT_EQ(rig.ci->Node().State().Load(chain::SlotKey(contract, slot)), 0u);
}

}  // namespace
}  // namespace dcert::core
