// The trusted enclave program — Algorithms 2, 4, and the trusted inner loop
// of Algorithm 5. In a real deployment this translation unit (plus its pure
// dependencies) is what would be compiled against the SGX SDK; it touches no
// ambient state beyond its construction-time configuration and the sealed
// signing key.
#pragma once

#include <memory>
#include <optional>

#include "chain/block.h"
#include "chain/executor.h"
#include "common/status.h"
#include "crypto/signature.h"
#include "dcert/certificate.h"
#include "dcert/index_verifier.h"
#include "dcert/update_proof.h"
#include "sgxsim/enclave.h"

namespace dcert::core {

/// Configuration sealed into the enclave at initialization: the hard-coded
/// genesis digest (Alg. 2 line 4), the pinned contract code commitment, and
/// the consensus difficulty the chain runs at.
struct EnclaveConfig {
  Hash256 genesis_hash;
  Hash256 registry_digest;
  std::uint32_t difficulty_bits = 8;
};

/// Identity constants of the certificate-construction enclave. Verifiers pin
/// this measurement (Alg. 3 line 4).
inline constexpr const char* kEnclaveProgramName = "dcert-certificate-enclave";
inline constexpr const char* kEnclaveProgramVersion = "1.0.0";
Hash256 ExpectedEnclaveMeasurement();

class CertEnclaveProgram {
 public:
  /// Initialization (Sec. 3.3): derives the key pair (sk_enc stays inside),
  /// and checks the host-provided registry against the pinned digest.
  /// Throws std::invalid_argument on registry mismatch.
  CertEnclaveProgram(EnclaveConfig config,
                     std::shared_ptr<const chain::ContractRegistry> registry,
                     ByteView key_seed);

  const crypto::PublicKey& PublicKey() const { return signing_key_.Public(); }

  /// Quote binding pk_enc for remote attestation. The host forwards it to
  /// the (simulated) IAS and passes the resulting report around in certs.
  sgxsim::Quote MakeKeyQuote(const sgxsim::Enclave& enclave) const;

  /// Seals the signing key to the enclave identity so a restarted CI can
  /// resume with the same pk_enc (clients keep their cached attestation).
  Bytes SealSigningKey(const sgxsim::Enclave& enclave) const;

  /// Restores a program from a sealed signing key. Fails (Status) when the
  /// blob was sealed by a different enclave identity or tampered with.
  static Result<CertEnclaveProgram> RestoreFromSealed(
      EnclaveConfig config, std::shared_ptr<const chain::ContractRegistry> registry,
      const sgxsim::Enclave& enclave, ByteView sealed_key);

  /// ecall_sig_gen (Alg. 2): verifies the previous certificate, replays the
  /// new block against the proof-backed read set, checks the state
  /// transition, and signs H(hdr_i). `prev_cert` is nullopt only when the
  /// previous block is genesis.
  Result<crypto::Signature> SigGen(const chain::BlockHeader& prev_hdr,
                                   const std::optional<BlockCertificate>& prev_cert,
                                   const chain::Block& new_blk,
                                   const StateUpdateProof& update_proof) const;

  /// Batched variant of ecall_sig_gen: verifies a contiguous span of blocks
  /// in ONE Ecall (the previous certificate is checked once; each block is
  /// then chain-verified against its predecessor) and signs the LAST header.
  /// Amortizes enclave transitions and signature work across the span; the
  /// trade-off is certification latency for the intermediate blocks, which
  /// receive no certificates of their own.
  Result<crypto::Signature> SigGenSpan(
      const chain::BlockHeader& prev_hdr,
      const std::optional<BlockCertificate>& prev_cert,
      const std::vector<chain::Block>& blocks,
      const std::vector<StateUpdateProof>& update_proofs) const;

  /// Augmented certificate generation (Alg. 4): block verification + index
  /// update in one call; signs H(H(hdr_i) || H_i^idx).
  Result<crypto::Signature> AugmentedSigGen(
      const chain::BlockHeader& prev_hdr,
      const std::optional<IndexCertificate>& prev_idx_cert,
      const Hash256& prev_idx_digest, const chain::Block& new_blk,
      const StateUpdateProof& update_proof, const IndexUpdateVerifier& verifier,
      ByteView index_aux_proof, Hash256& new_idx_digest_out) const;

  /// Hierarchical index certificate (Alg. 5 inner loop): relies on the
  /// already-constructed block certificate instead of replaying the block;
  /// only the transaction list is re-checked against the certified tx root
  /// (needed to extract index write data).
  Result<crypto::Signature> IndexSigGen(
      const chain::BlockHeader& prev_hdr,
      const std::optional<IndexCertificate>& prev_idx_cert,
      const Hash256& prev_idx_digest, const chain::Block& new_blk,
      const BlockCertificate& block_cert, const IndexUpdateVerifier& verifier,
      ByteView index_aux_proof, Hash256& new_idx_digest_out) const;

  const EnclaveConfig& Config() const { return config_; }

 private:
  /// A certificate and the digest cert_verify_t requires it to sign.
  struct CertCheck {
    const BlockCertificate* cert;
    Hash256 digest;
  };
  /// blk_verify_t (Alg. 2 lines 10-24).
  Status BlkVerify(const chain::BlockHeader& prev_hdr, const chain::Block& new_blk,
                   const StateUpdateProof& update_proof) const;
  /// Previous-block validation shared by all entry points: genesis check or
  /// recursive certificate check (cert_verify_t: envelope + digest). `also`
  /// is one more cert_verify_t whose signatures join the same batch; the
  /// previous block's errors come first.
  Status VerifyPrev(const chain::BlockHeader& prev_hdr,
                    const std::optional<BlockCertificate>& prev_cert,
                    const std::optional<Hash256>& prev_idx_digest = {},
                    const std::optional<Hash256>& genesis_idx_digest = {},
                    std::optional<CertCheck> also = std::nullopt) const;

  EnclaveConfig config_;
  std::shared_ptr<const chain::ContractRegistry> registry_;
  crypto::SecretKey signing_key_;
  Hash256 own_measurement_;
  /// The IAS report signatures cert_verify_t has already checked: the CI's
  /// one report rides in every certificate, so it is checked once.
  std::unique_ptr<VerifiedReports> verified_reports_ =
      std::make_unique<VerifiedReports>();
};

}  // namespace dcert::core
