// DCert certificates (Sec. 3.3): cert = <pk_enc, rep, dig, sig>.
//  * Block certificate: dig = H(hdr_i), proving the whole chain up to and
//    including block i (recursively).
//  * Index certificate (augmented or hierarchical schemes): dig =
//    H(H(hdr_i) || H_i^idx), binding an authenticated index digest to the
//    block it reflects.
#pragma once

#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/serialize.h"
#include "common/status.h"
#include "crypto/signature.h"
#include "sgxsim/attestation.h"

namespace dcert::core {

struct BlockCertificate {
  crypto::PublicKey pk_enc;
  sgxsim::AttestationReport report;
  Hash256 digest;           // dig_i
  crypto::Signature sig;    // Sign(sk_enc, dig_i)

  Bytes Serialize() const;
  static Result<BlockCertificate> Deserialize(ByteView data);
  std::size_t ByteSize() const { return Serialize().size(); }
  bool operator==(const BlockCertificate&) const = default;
};

/// Index certificates share the wire shape; only the digest derivation
/// differs.
using IndexCertificate = BlockCertificate;

/// dig for an index certificate: H(header-hash || index-digest).
Hash256 IndexCertDigest(const Hash256& header_hash, const Hash256& index_digest);

/// The report_data a DCert enclave quotes: H(pk_enc serialization). Binds the
/// enclave-generated key into the attestation report.
Hash256 KeyBindingReportData(const crypto::PublicKey& pk_enc);

/// IAS report signatures already checked, as (quote digest, IAS signature)
/// pairs that verified: the most recent kCapacity, oldest evicted first.
/// Thread-safe. A CI carries one report in every certificate, so a verifier
/// that keeps one checks that report's signature once.
class VerifiedReports {
 public:
  static constexpr std::size_t kCapacity = 4;

  bool Contains(const Hash256& quote_digest, const crypto::Signature& ias_sig) const;
  void Add(const Hash256& quote_digest, const crypto::Signature& ias_sig);

 private:
  mutable std::mutex mu_;
  std::deque<std::pair<Hash256, crypto::Signature>> entries_;
};

/// cert_verify_t (Alg. 2 lines 25-32) minus the final digest comparison —
/// shared by the enclave program and the superlight client:
///  (i)   rep is signed by the IAS;
///  (ii)  rep's measurement equals `expected_measurement`;
///  (iii) pk_enc matches rep's bound key;
///  (iv)  sig verifies dig under pk_enc.
/// The first failing check names the error. The caller then compares
/// cert.digest against its expected value.
///
/// Every signature of the n certificates (the IAS report signature and the
/// enclave digest signature of each) goes through one crypto::VerifyBatch —
/// the n IAS checks share a single point term — and the structural checks
/// run per certificate. With `known`, an IAS signature it holds counts as
/// verified without a check, and each one that verifies is added to it; the
/// verdicts are the same either way. Returns one status per certificate, in
/// order.
std::vector<Status> VerifyCertificateEnvelopesBatch(
    const BlockCertificate* const* certs, std::size_t n,
    const Hash256& expected_measurement, VerifiedReports* known = nullptr);

/// VerifyCertificateEnvelopesBatch on one certificate (its two signatures
/// in one batch).
Status VerifyCertificateEnvelope(const BlockCertificate& cert,
                                 const Hash256& expected_measurement);

}  // namespace dcert::core
