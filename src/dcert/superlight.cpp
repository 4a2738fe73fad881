#include "dcert/superlight.h"

#include <stdexcept>

#include "chain/consensus.h"
#include "crypto/sha256.h"

namespace dcert::core {

SuperlightClient::SuperlightClient(Hash256 expected_measurement)
    : expected_measurement_(expected_measurement) {}

Status SuperlightClient::VerifyEnvelopeCached(const BlockCertificate& cert) {
  // One report verification per enclave identity (Sec. 4.3): afterwards only
  // the signature check runs per certificate. The key covers the whole
  // report, IAS signature included: a cache keyed on the quote alone would
  // accept a later certificate carrying the same quote under a corrupted
  // IAS signature. Honest certificates carry identical report bytes.
  Hash256 cache_key = crypto::Sha256::Digest(cert.report.Serialize());
  auto it = attested_keys_.find(cache_key);
  if (it != attested_keys_.end() && it->second) {
    if (cert.report.quote.report_data != KeyBindingReportData(cert.pk_enc)) {
      return Status::Error("enclave key does not match the attestation report");
    }
    if (!crypto::Verify(cert.pk_enc, cert.digest, cert.sig)) {
      return Status::Error("certificate signature invalid");
    }
    return Status::Ok();
  }
  ++report_verifications_;
  Status st = VerifyCertificateEnvelope(cert, expected_measurement_);
  if (st) attested_keys_[cache_key] = true;
  return st;
}

Status SuperlightClient::ValidateAndAccept(const chain::BlockHeader& hdr,
                                           const BlockCertificate& cert) {
  // Lines 2-6: certificate envelope (IAS report, measurement, key binding,
  // signature).
  if (Status st = VerifyEnvelopeCached(cert); !st) return st;
  // Line 7: the certificate must be about exactly this header.
  if (cert.digest != hdr.Hash()) {
    return Status::Error("certificate digest does not match the header");
  }
  // Line 8: chain selection (longest chain — strictly increasing height).
  std::uint64_t best = latest_ ? latest_->height : 0;
  if (latest_ && !chain::SatisfiesChainSelection(best, hdr)) {
    return Status::Error("header does not satisfy the chain selection rule");
  }
  latest_ = hdr;
  latest_cert_ = cert;
  return Status::Ok();
}

Status SuperlightClient::AcceptIndexCert(const chain::BlockHeader& hdr,
                                         const IndexCertificate& cert,
                                         const Hash256& idx_digest,
                                         const std::string& index_id) {
  if (Status st = VerifyEnvelopeCached(cert); !st) return st;
  if (cert.digest != IndexCertDigest(hdr.Hash(), idx_digest)) {
    return Status::Error("index certificate does not bind this header + digest");
  }
  // The header itself must be one the client trusts (the latest accepted, or
  // newer — in which case it must carry its own valid block/index chain; we
  // require consistency with the stored latest for the common case).
  auto it = index_state_.find(index_id);
  if (it != index_state_.end() &&
      hdr.height <= it->second.header.height &&
      hdr.Hash() != it->second.header.Hash()) {
    return Status::Error("index certificate is older than the accepted one");
  }
  index_state_[index_id] = IndexState{hdr, cert, idx_digest};
  return Status::Ok();
}

std::uint64_t SuperlightClient::Height() const {
  return latest_ ? latest_->height : 0;
}

const chain::BlockHeader& SuperlightClient::LatestHeader() const {
  if (!latest_) throw std::logic_error("SuperlightClient: no accepted header");
  return *latest_;
}

const BlockCertificate& SuperlightClient::LatestCert() const {
  if (!latest_cert_) throw std::logic_error("SuperlightClient: no certificate");
  return *latest_cert_;
}

std::optional<Hash256> SuperlightClient::CertifiedIndexDigest(
    const std::string& index_id) const {
  auto it = index_state_.find(index_id);
  if (it == index_state_.end()) return std::nullopt;
  return it->second.digest;
}

std::size_t SuperlightClient::StorageBytes() const {
  std::size_t total = 0;
  if (latest_) total += latest_->Serialize().size();
  if (latest_cert_) total += latest_cert_->ByteSize();
  for (const auto& [id, state] : index_state_) {
    total += id.size() + state.header.Serialize().size() +
             state.cert.ByteSize() + Hash256::kSize;
  }
  return total;
}

}  // namespace dcert::core
