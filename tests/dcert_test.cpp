// DCert core: end-to-end block certification (Alg. 1-2), superlight client
// validation (Alg. 3), and the forgery paths of Theorem 1.
#include <gtest/gtest.h>

#include "dcert/certificate.h"
#include "dcert/enclave_program.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "query/historical_index.h"
#include "workloads/workloads.h"

namespace dcert::core {
namespace {

using workloads::AccountPool;
using workloads::Workload;
using workloads::WorkloadGenerator;

struct TestRig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::unique_ptr<CertificateIssuer> ci;
  std::unique_ptr<chain::FullNode> miner_node;
  std::unique_ptr<chain::Miner> miner;
  AccountPool pool{6, 31};
  std::unique_ptr<WorkloadGenerator> gen;

  explicit TestRig(Workload kind = Workload::kKvStore) {
    config.difficulty_bits = 2;
    registry = workloads::MakeBlockbenchRegistry(2);
    ci = std::make_unique<CertificateIssuer>(config, registry);
    miner_node = std::make_unique<chain::FullNode>(config, registry);
    miner = std::make_unique<chain::Miner>(*miner_node);
    WorkloadGenerator::Params params;
    params.kind = kind;
    params.instances_per_workload = 2;
    params.cpu_iterations = 20;
    params.io_keys_per_tx = 4;
    gen = std::make_unique<WorkloadGenerator>(params, pool);
  }

  chain::Block NextBlock(std::size_t txs = 8) {
    auto block = miner->MineBlock(gen->NextBlockTxs(txs), 1000 + miner_node->Height());
    if (!block.ok()) throw std::runtime_error(block.message());
    Status st = miner_node->SubmitBlock(block.value());
    if (!st) throw std::runtime_error(st.message());
    return block.value();
  }
};

TEST(CertificateTest, SerializationRoundTrip) {
  TestRig rig;
  chain::Block blk = rig.NextBlock();
  auto cert = rig.ci->ProcessBlock(blk);
  ASSERT_TRUE(cert.ok()) << cert.message();
  auto decoded = BlockCertificate::Deserialize(cert.value().Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value(), cert.value());
}

TEST(DcertE2eTest, CertifyChainAndValidateOnSuperlightClient) {
  TestRig rig;
  SuperlightClient client(ExpectedEnclaveMeasurement());

  for (int i = 0; i < 5; ++i) {
    chain::Block blk = rig.NextBlock();
    auto cert = rig.ci->ProcessBlock(blk);
    ASSERT_TRUE(cert.ok()) << "block " << i << ": " << cert.message();
    ASSERT_TRUE(client.ValidateAndAccept(blk.header, cert.value()).ok());
  }
  EXPECT_EQ(client.Height(), 5u);
  // Constant storage: just the latest header + certificate.
  EXPECT_LT(client.StorageBytes(), 4096u);
  // The attestation report verified exactly once despite 5 certificates.
  EXPECT_EQ(client.ReportVerifications(), 1u);
}

TEST(DcertE2eTest, TimingBreakdownPopulated) {
  TestRig rig;
  chain::Block blk = rig.NextBlock();
  ASSERT_TRUE(rig.ci->ProcessBlock(blk).ok());
  const CertTiming& t = rig.ci->LastTiming();
  EXPECT_GT(t.rwset_ns, 0u);
  EXPECT_GT(t.proof_ns, 0u);
  EXPECT_GT(t.enclave_wall_ns, 0u);
  EXPECT_GE(t.enclave_modeled_ns, t.enclave_wall_ns);
  EXPECT_EQ(t.ecalls, 1u);
}

TEST(DcertE2eTest, EveryWorkloadCertifies) {
  for (Workload kind : workloads::kAllWorkloads) {
    TestRig rig(kind);
    chain::Block blk = rig.NextBlock(6);
    auto cert = rig.ci->ProcessBlock(blk);
    ASSERT_TRUE(cert.ok()) << workloads::Name(kind) << ": " << cert.message();
  }
}

TEST(DcertE2eTest, CiRejectsBlockNotExtendingTip) {
  TestRig rig;
  chain::Block b1 = rig.NextBlock();
  chain::Block b2 = rig.NextBlock();
  // b2 before b1: not extending the CI tip.
  EXPECT_FALSE(rig.ci->ProcessBlock(b2).ok());
  EXPECT_TRUE(rig.ci->ProcessBlock(b1).ok());
  EXPECT_TRUE(rig.ci->ProcessBlock(b2).ok());
}

// --- Theorem 1 forgery paths ---

TEST(EnclaveSecurityTest, RejectsTamperedStateRoot) {
  TestRig rig;
  chain::Block b1 = rig.NextBlock();
  ASSERT_TRUE(rig.ci->ProcessBlock(b1).ok());
  chain::Block b2 = rig.NextBlock();
  chain::Block forged = b2;
  forged.header.state_root[0] ^= 1;
  chain::MineNonce(forged.header);
  EXPECT_FALSE(rig.ci->ProcessBlock(forged).ok());
}

TEST(EnclaveSecurityTest, RejectsDroppedAndInjectedTransactions) {
  TestRig rig;
  chain::Block blk = rig.NextBlock(4);
  chain::Block dropped = blk;
  dropped.txs.Mutable().pop_back();
  EXPECT_FALSE(rig.ci->ProcessBlock(dropped).ok());
}

TEST(EnclaveSecurityTest, RejectsBadConsensusProof) {
  TestRig rig;
  chain::Block blk = rig.NextBlock();
  chain::Block forged = blk;
  forged.header.consensus_nonce += 1;
  if (chain::VerifyConsensus(forged.header).ok()) forged.header.consensus_nonce += 1;
  EXPECT_FALSE(rig.ci->ProcessBlock(forged).ok());
}

TEST(EnclaveSecurityTest, EnclaveRejectsForgedPreviousCertificate) {
  // Drive the enclave program directly with a tampered prev cert.
  TestRig rig;
  chain::Block b1 = rig.NextBlock();
  auto cert1 = rig.ci->ProcessBlock(b1);
  ASSERT_TRUE(cert1.ok());
  chain::Block b2 = rig.NextBlock();

  EnclaveConfig ec;
  ec.genesis_hash = chain::MakeGenesisBlock(rig.config).header.Hash();
  ec.registry_digest = rig.registry->Digest();
  ec.difficulty_bits = rig.config.difficulty_bits;
  CertEnclaveProgram program(ec, rig.registry, StrBytes("attacker-enclave-key"));

  // Reconstruct the update proof like a CI would (b2 on top of b1's state).
  chain::FullNode replay_node(rig.config, rig.registry);
  ASSERT_TRUE(replay_node.SubmitBlock(b1).ok());
  auto exec = chain::ExecuteBlockTxs(b2.txs, *rig.registry, replay_node.State());
  ASSERT_TRUE(exec.ok());
  StateUpdateProof proof = BuildStateUpdateProof(exec.value().reads,
                                                 exec.value().writes,
                                                 replay_node.State());

  // Genuine prev cert: accepted.
  EXPECT_TRUE(program.SigGen(b1.header, cert1.value(), b2, proof).ok());

  // Tampered signature in the previous certificate: rejected.
  BlockCertificate bad_sig = cert1.value();
  bad_sig.sig.s = crypto::Curve().Fn().Add(bad_sig.sig.s, crypto::U256(1));
  EXPECT_FALSE(program.SigGen(b1.header, bad_sig, b2, proof).ok());

  // Certificate for the wrong block digest: rejected.
  BlockCertificate wrong_digest = cert1.value();
  wrong_digest.digest[0] ^= 1;
  EXPECT_FALSE(program.SigGen(b1.header, wrong_digest, b2, proof).ok());

  // Missing prev certificate for a non-genesis block: rejected.
  EXPECT_FALSE(program.SigGen(b1.header, std::nullopt, b2, proof).ok());

  // Report from a *different* enclave program (wrong measurement): rejected.
  BlockCertificate wrong_enclave = cert1.value();
  sgxsim::Enclave other("impostor-program", "9.9");
  wrong_enclave.report = sgxsim::AttestationService::Attest(
      other.MakeQuote(KeyBindingReportData(wrong_enclave.pk_enc)));
  EXPECT_FALSE(program.SigGen(b1.header, wrong_enclave, b2, proof).ok());

  // Tampered read set value: rejected (Merkle proof check).
  StateUpdateProof bad_reads = proof;
  if (!bad_reads.read_set.empty()) {
    bad_reads.read_set.begin()->second += 1;
    EXPECT_FALSE(program.SigGen(b1.header, cert1.value(), b2, bad_reads).ok());
  }

  // Incomplete read set: rejected (replay reads outside the set).
  StateUpdateProof missing_reads = proof;
  if (!missing_reads.read_set.empty()) {
    missing_reads.read_set.erase(missing_reads.read_set.begin());
    EXPECT_FALSE(program.SigGen(b1.header, cert1.value(), b2, missing_reads).ok());
  }
}

TEST(EnclaveSecurityTest, EnclaveRefusesWrongContractCode) {
  TestRig rig;
  EnclaveConfig ec;
  ec.genesis_hash = chain::MakeGenesisBlock(rig.config).header.Hash();
  ec.registry_digest = rig.registry->Digest();
  ec.difficulty_bits = rig.config.difficulty_bits;
  auto wrong_registry = workloads::MakeBlockbenchRegistry(3);  // different code set
  EXPECT_THROW(CertEnclaveProgram(ec, wrong_registry, StrBytes("seed")),
               std::invalid_argument);
}

// --- Superlight client (Alg. 3) ---

TEST(SuperlightTest, RejectsCertificateFromWrongEnclave) {
  TestRig rig;
  chain::Block blk = rig.NextBlock();
  auto cert = rig.ci->ProcessBlock(blk);
  ASSERT_TRUE(cert.ok());

  Hash256 other_measurement = sgxsim::ComputeMeasurement("other", "1.0");
  SuperlightClient paranoid(other_measurement);
  EXPECT_FALSE(paranoid.ValidateAndAccept(blk.header, cert.value()).ok());
}

TEST(SuperlightTest, RejectsMismatchedHeader) {
  TestRig rig;
  chain::Block b1 = rig.NextBlock();
  auto cert1 = rig.ci->ProcessBlock(b1);
  ASSERT_TRUE(cert1.ok());
  chain::Block b2 = rig.NextBlock();
  auto cert2 = rig.ci->ProcessBlock(b2);
  ASSERT_TRUE(cert2.ok());

  SuperlightClient client(ExpectedEnclaveMeasurement());
  // Certificate of block 1 presented with block 2's header.
  EXPECT_FALSE(client.ValidateAndAccept(b2.header, cert1.value()).ok());
  EXPECT_TRUE(client.ValidateAndAccept(b2.header, cert2.value()).ok());
}

TEST(SuperlightTest, ChainSelectionRejectsStaleHeaders) {
  TestRig rig;
  chain::Block b1 = rig.NextBlock();
  auto cert1 = rig.ci->ProcessBlock(b1);
  chain::Block b2 = rig.NextBlock();
  auto cert2 = rig.ci->ProcessBlock(b2);
  ASSERT_TRUE(cert1.ok() && cert2.ok());

  SuperlightClient client(ExpectedEnclaveMeasurement());
  ASSERT_TRUE(client.ValidateAndAccept(b2.header, cert2.value()).ok());
  // An older (lower-height) certified header loses chain selection.
  EXPECT_FALSE(client.ValidateAndAccept(b1.header, cert1.value()).ok());
  EXPECT_EQ(client.Height(), 2u);
}

TEST(SuperlightTest, RejectsForgedSignature) {
  TestRig rig;
  chain::Block blk = rig.NextBlock();
  auto cert = rig.ci->ProcessBlock(blk);
  ASSERT_TRUE(cert.ok());

  BlockCertificate forged = cert.value();
  forged.sig.r = crypto::Curve().Fp().Add(forged.sig.r, crypto::U256(1));
  SuperlightClient client(ExpectedEnclaveMeasurement());
  EXPECT_FALSE(client.ValidateAndAccept(blk.header, forged).ok());
}

TEST(SuperlightTest, RejectsSelfSignedCertificateWithoutAttestation) {
  // An attacker with their own key pair but no genuine enclave: they cannot
  // produce an IAS report binding their key to the pinned measurement.
  TestRig rig;
  chain::Block blk = rig.NextBlock();
  crypto::SecretKey attacker = crypto::SecretKey::FromSeed(StrBytes("attacker"));

  BlockCertificate forged;
  forged.pk_enc = attacker.Public();
  forged.digest = blk.header.Hash();
  forged.sig = attacker.Sign(forged.digest);
  // Best effort: quote claims the right measurement but the IAS never signed
  // this binding — simulate by self-attesting a mismatching report.
  sgxsim::Enclave fake(kEnclaveProgramName, kEnclaveProgramVersion);
  forged.report = sgxsim::AttestationService::Attest(
      fake.MakeQuote(Hash256()));  // wrong report_data binding
  SuperlightClient client(ExpectedEnclaveMeasurement());
  EXPECT_FALSE(client.ValidateAndAccept(blk.header, forged).ok());
}

TEST(SuperlightTest, IndexCertWithCorruptedIasSignatureRejected) {
  // The index certificate carries the same quote as the block certificate
  // the client just accepted, so only the IAS signature tells a corrupted
  // report apart: the attested-key cache must not answer for it.
  TestRig rig;
  auto hist = std::make_shared<query::HistoricalIndex>();
  rig.ci->AttachIndex(hist);
  chain::Block blk = rig.NextBlock();
  auto certs = rig.ci->ProcessBlockHierarchical(blk);
  ASSERT_TRUE(certs.ok()) << certs.message();
  ASSERT_EQ(certs.value().size(), 1u);
  const IndexCertificate& honest = certs.value()[0];
  SuperlightClient client(ExpectedEnclaveMeasurement());
  ASSERT_TRUE(client.ValidateAndAccept(blk.header, *rig.ci->LatestCert()).ok());
  ASSERT_EQ(honest.report.quote, rig.ci->LatestCert()->report.quote);

  const Bytes sig = honest.report.ias_signature.Serialize();
  std::size_t flips = 0;
  for (std::size_t bit = 0; bit < sig.size() * 8; ++bit) {
    Bytes flipped = sig;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto decoded = crypto::Signature::Deserialize(flipped);
    if (!decoded) continue;  // out of range: no wire codec would carry it
    IndexCertificate forged = honest;
    forged.report.ias_signature = *decoded;
    EXPECT_FALSE(client
                     .AcceptIndexCert(blk.header, forged, hist->CurrentDigest(),
                                      hist->Id())
                     .ok())
        << "IAS signature bit " << bit;
    ++flips;
  }
  EXPECT_GT(flips, 500u);

  // The honest index certificate still hits the cache: no new report check.
  const std::uint64_t checks = client.ReportVerifications();
  EXPECT_TRUE(client
                  .AcceptIndexCert(blk.header, honest, hist->CurrentDigest(),
                                   hist->Id())
                  .ok());
  EXPECT_EQ(client.ReportVerifications(), checks);
}

TEST(SuperlightTest, StorageIsConstantAcrossChainGrowth) {
  TestRig rig;
  SuperlightClient client(ExpectedEnclaveMeasurement());
  std::size_t storage_after_first = 0;
  for (int i = 0; i < 8; ++i) {
    chain::Block blk = rig.NextBlock(2);
    auto cert = rig.ci->ProcessBlock(blk);
    ASSERT_TRUE(cert.ok());
    ASSERT_TRUE(client.ValidateAndAccept(blk.header, cert.value()).ok());
    if (i == 0) storage_after_first = client.StorageBytes();
  }
  EXPECT_EQ(client.StorageBytes(), storage_after_first);
}

}  // namespace
}  // namespace dcert::core
