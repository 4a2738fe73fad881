#include "dcert/naive_enclave.h"

#include <stdexcept>

#include "chain/consensus.h"
#include "common/serialize.h"
#include "crypto/sha256.h"

namespace dcert::core {

Hash256 NaiveEnclaveMeasurement() {
  return sgxsim::ComputeMeasurement(kNaiveEnclaveProgramName,
                                    kEnclaveProgramVersion);
}

NaiveCertEnclaveProgram::NaiveCertEnclaveProgram(
    EnclaveConfig config, std::shared_ptr<const chain::ContractRegistry> registry,
    ByteView key_seed)
    : config_(config),
      registry_(std::move(registry)),
      signing_key_(crypto::SecretKey::FromSeed(key_seed)),
      own_measurement_(NaiveEnclaveMeasurement()) {
  if (!registry_ || registry_->Digest() != config_.registry_digest) {
    throw std::invalid_argument("NaiveCertEnclaveProgram: registry mismatch");
  }
}

sgxsim::Quote NaiveCertEnclaveProgram::MakeKeyQuote(
    const sgxsim::Enclave& enclave) const {
  return enclave.MakeQuote(KeyBindingReportData(signing_key_.Public()));
}

Result<crypto::Signature> NaiveCertEnclaveProgram::SigGen(
    const chain::BlockHeader& prev_hdr,
    const std::optional<BlockCertificate>& prev_cert, const chain::Block& blk) {
  using R = Result<crypto::Signature>;
  // Previous-block validation mirrors the stateless program.
  if (prev_hdr.height == 0) {
    if (prev_hdr.Hash() != config_.genesis_hash) {
      return R::Error("previous block does not match the pinned genesis");
    }
  } else {
    if (!prev_cert) return R::Error("missing previous certificate");
    if (Status st = VerifyCertificateEnvelope(*prev_cert, own_measurement_); !st) {
      return R(st);
    }
    if (prev_cert->digest != prev_hdr.Hash()) {
      return R::Error("previous certificate digest mismatch");
    }
  }

  const chain::BlockHeader& hdr = blk.header;
  if (hdr.prev_hash != prev_hdr.Hash() || hdr.height != prev_hdr.height + 1) {
    return R::Error("block does not extend the previous header");
  }
  if (hdr.difficulty_bits != config_.difficulty_bits) {
    return R::Error("unexpected difficulty");
  }
  if (Status st = chain::VerifyConsensus(hdr); !st) return R(st);
  if (hdr.tx_root != chain::Block::ComputeTxRoot(blk.txs)) {
    return R::Error("transaction root mismatch");
  }

  // Execute directly against the RESIDENT state — no proofs anywhere, but
  // the whole state must live inside the enclave.
  auto executed = chain::ExecuteBlockTxs(blk.txs, *registry_, state_);
  if (!executed) return R(executed.status());
  // Apply-then-compare, rolling back on mismatch so a forged block cannot
  // corrupt the resident state.
  chain::StateMap rollback;
  state_.ApplyWrites(executed.value().writes, &rollback);
  if (state_.Root() != hdr.state_root) {
    state_.ApplyWrites(rollback);
    return R::Error("state root mismatch after in-enclave execution");
  }
  return signing_key_.Sign(hdr.Hash());
}

NaiveCertificateIssuer::NaiveCertificateIssuer(
    chain::ChainConfig config,
    std::shared_ptr<const chain::ContractRegistry> registry,
    sgxsim::CostModelParams cost_model)
    : config_(config),
      enclave_(kNaiveEnclaveProgramName, kEnclaveProgramVersion, cost_model),
      program_(
          [&] {
            EnclaveConfig ec;
            ec.genesis_hash = chain::MakeGenesisBlock(config).header.Hash();
            ec.registry_digest = registry->Digest();
            ec.difficulty_bits = config.difficulty_bits;
            return ec;
          }(),
          registry, StrBytes("dcert-naive-ci-key")),
      report_(sgxsim::AttestationService::Attest(program_.MakeKeyQuote(enclave_))),
      node_(config, std::move(registry)) {}

Result<BlockCertificate> NaiveCertificateIssuer::ProcessBlock(
    const chain::Block& blk) {
  using R = Result<BlockCertificate>;
  timing_ = CertTiming{};
  const chain::BlockHeader prev_hdr = node_.Tip().header;
  const std::optional<BlockCertificate> prev_cert = latest_cert_;

  // Every Ecall's working set includes the resident state (the EPC pressure
  // that motivates the paper's stateless design).
  const std::uint64_t input_bytes = blk.ByteSize() + program_.ResidentStateBytes();
  const sgxsim::CostAccounting before = enclave_.Costs();
  auto sig = enclave_.Ecall(input_bytes, [&] {
    return program_.SigGen(prev_hdr, prev_cert, blk);
  });
  // The naive program also checkpoints its resident state via an Ocall.
  enclave_.Costs().RecordOcall();
  timing_.enclave_wall_ns += enclave_.Costs().wall_ns() - before.wall_ns();
  timing_.enclave_modeled_ns +=
      enclave_.Costs().ModeledEnclaveTimeNs() - before.ModeledEnclaveTimeNs();
  timing_.ecalls += 1;
  if (!sig) return R(sig.status().WithContext("naive ecall"));

  BlockCertificate cert;
  cert.pk_enc = program_.PublicKey();
  cert.report = report_;
  cert.digest = blk.header.Hash();
  cert.sig = sig.value();

  if (Status st = node_.SubmitBlock(blk); !st) return R(st.WithContext("commit"));
  latest_cert_ = cert;
  return cert;
}

}  // namespace dcert::core
