#include "dcert/enclave_program.h"

#include <stdexcept>

#include "chain/consensus.h"
#include "crypto/sha256.h"
#include "mht/smt.h"

namespace dcert::core {

Hash256 ExpectedEnclaveMeasurement() {
  return sgxsim::ComputeMeasurement(kEnclaveProgramName, kEnclaveProgramVersion);
}

CertEnclaveProgram::CertEnclaveProgram(
    EnclaveConfig config, std::shared_ptr<const chain::ContractRegistry> registry,
    ByteView key_seed)
    : config_(config),
      registry_(std::move(registry)),
      signing_key_(crypto::SecretKey::FromSeed(key_seed)),
      own_measurement_(ExpectedEnclaveMeasurement()) {
  if (!registry_) {
    throw std::invalid_argument("CertEnclaveProgram: null registry");
  }
  if (registry_->Digest() != config_.registry_digest) {
    throw std::invalid_argument(
        "CertEnclaveProgram: host-provided contract code does not match the "
        "pinned registry digest");
  }
}

sgxsim::Quote CertEnclaveProgram::MakeKeyQuote(const sgxsim::Enclave& enclave) const {
  return enclave.MakeQuote(KeyBindingReportData(signing_key_.Public()));
}

Bytes CertEnclaveProgram::SealSigningKey(const sgxsim::Enclave& enclave) const {
  return enclave.Seal(signing_key_.ScalarBytes());
}

Result<CertEnclaveProgram> CertEnclaveProgram::RestoreFromSealed(
    EnclaveConfig config, std::shared_ptr<const chain::ContractRegistry> registry,
    const sgxsim::Enclave& enclave, ByteView sealed_key) {
  using R = Result<CertEnclaveProgram>;
  auto scalar = enclave.Unseal(sealed_key);
  if (!scalar) return R(scalar.status().WithContext("sealed signing key"));
  try {
    // Construct with a throwaway seed, then swap in the restored key.
    CertEnclaveProgram program(config, std::move(registry),
                               StrBytes("dcert-restore-placeholder"));
    program.signing_key_ = crypto::SecretKey::FromScalarBytes(scalar.value());
    return program;
  } catch (const std::invalid_argument& e) {
    return R::Error(std::string("restore: ") + e.what());
  }
}

Status CertEnclaveProgram::VerifyPrev(
    const chain::BlockHeader& prev_hdr,
    const std::optional<BlockCertificate>& prev_cert,
    const std::optional<Hash256>& prev_idx_digest,
    const std::optional<Hash256>& genesis_idx_digest,
    std::optional<CertCheck> also) const {
  std::vector<CertCheck> checks;
  if (prev_hdr.height == 0) {
    // Genesis is deterministic: no certificate needed (Alg. 2 lines 3-4).
    if (prev_hdr.Hash() != config_.genesis_hash) {
      return Status::Error("previous block does not match the pinned genesis");
    }
    if (prev_idx_digest.has_value() &&
        *prev_idx_digest != genesis_idx_digest.value_or(Hash256())) {
      return Status::Error("previous index digest does not match its genesis");
    }
  } else if (!prev_cert.has_value()) {
    return Status::Error("missing certificate for non-genesis previous block");
  } else {
    checks.push_back({&*prev_cert, prev_idx_digest.has_value()
                                       ? IndexCertDigest(prev_hdr.Hash(),
                                                         *prev_idx_digest)
                                       : prev_hdr.Hash()});
  }
  if (also) checks.push_back(*also);
  // cert_verify_t: every envelope signature in one batch, verdicts in order.
  std::vector<const BlockCertificate*> certs;
  for (const CertCheck& c : checks) certs.push_back(c.cert);
  std::vector<Status> env = VerifyCertificateEnvelopesBatch(
      certs.data(), certs.size(), own_measurement_, verified_reports_.get());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (!env[i]) return env[i].WithContext("cert_verify_t");
    if (checks[i].cert->digest != checks[i].digest) {
      return Status::Error("cert_verify_t: certificate digest mismatch");
    }
  }
  return Status::Ok();
}

Status CertEnclaveProgram::BlkVerify(const chain::BlockHeader& prev_hdr,
                                     const chain::Block& new_blk,
                                     const StateUpdateProof& update_proof) const {
  const chain::BlockHeader& hdr = new_blk.header;
  // Line 14: chain linkage.
  if (hdr.prev_hash != prev_hdr.Hash()) {
    return Status::Error("blk_verify_t: previous-hash mismatch");
  }
  if (hdr.height != prev_hdr.height + 1) {
    return Status::Error("blk_verify_t: height is not previous + 1");
  }
  // Line 15: consensus proof.
  if (hdr.difficulty_bits != config_.difficulty_bits) {
    return Status::Error("blk_verify_t: unexpected difficulty");
  }
  if (Status st = chain::VerifyConsensus(hdr); !st) {
    return st.WithContext("blk_verify_t");
  }
  // Line 16: transaction commitment.
  if (hdr.tx_root != chain::Block::ComputeTxRoot(new_blk.txs)) {
    return Status::Error("blk_verify_t: transaction root mismatch");
  }
  // Line 17: read-set (and write-neighborhood) integrity against the
  // previous state root. Passing it also pins down what every proof entry
  // is (a parent's tag binds its children's kinds), so the root computed
  // below for the new values is the one every full node computes.
  std::map<Hash256, Hash256> old_leaves = update_proof.OldLeaves();
  if (mht::SparseMerkleTree::ComputeRootFromProof(update_proof.smt_proof,
                                                  old_leaves) !=
      prev_hdr.state_root) {
    return Status::Error("blk_verify_t: update proof does not match H_state");
  }
  // Lines 18-21: trusted replay over the verified read set. Signature and
  // nonce validity are enforced inside the executor; this is the only place
  // the CI checks signatures (batched across the pool, which models several
  // enclave threads; the host's pre-processing skips them).
  chain::ReadSetReader reader(update_proof.read_set);
  auto replay = chain::ExecuteBlockTxs(new_blk.txs, *registry_, reader);
  if (!replay) return replay.status().WithContext("blk_verify_t: replay");

  // Lines 22-23: every write must be covered by the proof, and the updated
  // root must equal the new block's H_state.
  std::map<Hash256, Hash256> new_leaves = old_leaves;
  for (const auto& [key, value] : replay.value().writes) {
    auto it = new_leaves.find(key);
    if (it == new_leaves.end()) {
      return Status::Error("blk_verify_t: write proof does not cover a write");
    }
    it->second = chain::StateValueHash(value);
  }
  if (mht::SparseMerkleTree::ComputeRootFromProof(update_proof.smt_proof,
                                                  new_leaves) != hdr.state_root) {
    return Status::Error("blk_verify_t: updated state root mismatch");
  }
  return Status::Ok();
}

Result<crypto::Signature> CertEnclaveProgram::SigGen(
    const chain::BlockHeader& prev_hdr,
    const std::optional<BlockCertificate>& prev_cert, const chain::Block& new_blk,
    const StateUpdateProof& update_proof) const {
  using R = Result<crypto::Signature>;
  if (Status st = VerifyPrev(prev_hdr, prev_cert); !st) return R(st);
  if (Status st = BlkVerify(prev_hdr, new_blk, update_proof); !st) return R(st);
  return signing_key_.Sign(new_blk.header.Hash());
}

Result<crypto::Signature> CertEnclaveProgram::SigGenSpan(
    const chain::BlockHeader& prev_hdr,
    const std::optional<BlockCertificate>& prev_cert,
    const std::vector<chain::Block>& blocks,
    const std::vector<StateUpdateProof>& update_proofs) const {
  using R = Result<crypto::Signature>;
  if (blocks.empty()) return R::Error("SigGenSpan: empty span");
  if (blocks.size() != update_proofs.size()) {
    return R::Error("SigGenSpan: one update proof per block required");
  }
  if (Status st = VerifyPrev(prev_hdr, prev_cert); !st) return R(st);
  const chain::BlockHeader* prev = &prev_hdr;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (Status st = BlkVerify(*prev, blocks[i], update_proofs[i]); !st) {
      return R(st.WithContext("span block " + std::to_string(i)));
    }
    prev = &blocks[i].header;
  }
  return signing_key_.Sign(prev->Hash());
}

Result<crypto::Signature> CertEnclaveProgram::AugmentedSigGen(
    const chain::BlockHeader& prev_hdr,
    const std::optional<IndexCertificate>& prev_idx_cert,
    const Hash256& prev_idx_digest, const chain::Block& new_blk,
    const StateUpdateProof& update_proof, const IndexUpdateVerifier& verifier,
    ByteView index_aux_proof, Hash256& new_idx_digest_out) const {
  using R = Result<crypto::Signature>;
  // Alg. 4 lines 3-6: recursive check of the previous augmented certificate
  // (which binds both the previous header and the previous index digest).
  if (Status st = VerifyPrev(prev_hdr, prev_idx_cert, prev_idx_digest,
                             verifier.GenesisDigest());
      !st) {
    return R(st);
  }
  // Line 7: full block verification (this is what the hierarchical scheme
  // avoids repeating per index).
  if (Status st = BlkVerify(prev_hdr, new_blk, update_proof); !st) return R(st);
  // Lines 8-10: verify and apply the index update.
  auto new_digest = verifier.ApplyUpdate(prev_idx_digest, index_aux_proof, new_blk);
  if (!new_digest) return R(new_digest.status().WithContext("index update"));
  new_idx_digest_out = new_digest.value();
  // Line 12: sign H(hdr_i || H_i^idx).
  return signing_key_.Sign(
      IndexCertDigest(new_blk.header.Hash(), new_idx_digest_out));
}

Result<crypto::Signature> CertEnclaveProgram::IndexSigGen(
    const chain::BlockHeader& prev_hdr,
    const std::optional<IndexCertificate>& prev_idx_cert,
    const Hash256& prev_idx_digest, const chain::Block& new_blk,
    const BlockCertificate& block_cert, const IndexUpdateVerifier& verifier,
    ByteView index_aux_proof, Hash256& new_idx_digest_out) const {
  using R = Result<crypto::Signature>;
  // Alg. 5 lines 5-10: the previous index certificate (or genesis digests),
  // then the block certificate, which replaces re-execution; their four
  // signatures verify in one batch.
  if (Status st = VerifyPrev(prev_hdr, prev_idx_cert, prev_idx_digest,
                             verifier.GenesisDigest(),
                             CertCheck{&block_cert, new_blk.header.Hash()});
      !st) {
    return R(st);
  }
  // Linkage between the two certified headers.
  if (new_blk.header.prev_hash != prev_hdr.Hash() ||
      new_blk.header.height != prev_hdr.height + 1) {
    return R::Error("IndexSigGen: block does not extend the previous header");
  }
  // The write data comes from the transactions, so re-check them against the
  // certified tx root before extraction.
  if (new_blk.header.tx_root != chain::Block::ComputeTxRoot(new_blk.txs)) {
    return R::Error("IndexSigGen: transaction root mismatch");
  }
  // Lines 11-13: verify and apply the index update.
  auto new_digest = verifier.ApplyUpdate(prev_idx_digest, index_aux_proof, new_blk);
  if (!new_digest) return R(new_digest.status().WithContext("index update"));
  new_idx_digest_out = new_digest.value();
  // Line 15.
  return signing_key_.Sign(
      IndexCertDigest(new_blk.header.Hash(), new_idx_digest_out));
}

}  // namespace dcert::core
