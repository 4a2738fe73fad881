#include "dcert/certificate.h"

#include <algorithm>
#include <cstdint>

#include "crypto/sha256.h"

namespace dcert::core {

Bytes BlockCertificate::Serialize() const {
  Encoder enc;
  enc.Raw(pk_enc.Serialize());
  enc.Blob(report.Serialize());
  enc.HashField(digest);
  enc.Raw(sig.Serialize());
  return enc.Take();
}

Result<BlockCertificate> BlockCertificate::Deserialize(ByteView data) {
  using R = Result<BlockCertificate>;
  try {
    Decoder dec(data);
    BlockCertificate cert;
    Bytes pk_bytes = dec.Raw(64);
    auto pk = crypto::PublicKey::Deserialize(pk_bytes);
    if (!pk) return R::Error("BlockCertificate: invalid enclave key");
    cert.pk_enc = *pk;
    Bytes report_bytes = dec.Blob();
    auto report = sgxsim::AttestationReport::Deserialize(report_bytes);
    if (!report) return R(report.status());
    cert.report = report.value();
    cert.digest = dec.HashField();
    Bytes sig_bytes = dec.Raw(64);
    dec.ExpectEnd();
    auto sig = crypto::Signature::Deserialize(sig_bytes);
    if (!sig) return R::Error("BlockCertificate: invalid signature encoding");
    cert.sig = *sig;
    return cert;
  } catch (const DecodeError& e) {
    return R::Error(std::string("BlockCertificate: ") + e.what());
  }
}

Hash256 IndexCertDigest(const Hash256& header_hash, const Hash256& index_digest) {
  return crypto::Sha256::Digest2(header_hash.View(), index_digest.View());
}

Hash256 KeyBindingReportData(const crypto::PublicKey& pk_enc) {
  return crypto::Sha256::Digest(pk_enc.Serialize());
}

Status VerifyCertificateEnvelope(const BlockCertificate& cert,
                                 const Hash256& expected_measurement) {
  const BlockCertificate* one = &cert;
  return VerifyCertificateEnvelopesBatch(&one, 1, expected_measurement)[0];
}

bool VerifiedReports::Contains(const Hash256& quote_digest,
                               const crypto::Signature& ias_sig) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::find(entries_.begin(), entries_.end(),
                   std::make_pair(quote_digest, ias_sig)) != entries_.end();
}

void VerifiedReports::Add(const Hash256& quote_digest,
                          const crypto::Signature& ias_sig) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto entry = std::make_pair(quote_digest, ias_sig);
  if (std::find(entries_.begin(), entries_.end(), entry) != entries_.end()) return;
  if (entries_.size() == kCapacity) entries_.pop_front();
  entries_.push_back(entry);
}

std::vector<Status> VerifyCertificateEnvelopesBatch(
    const BlockCertificate* const* certs, std::size_t n,
    const Hash256& expected_measurement, VerifiedReports* known) {
  const crypto::PublicKey& ias_pk = sgxsim::AttestationService::IasPublicKey();
  constexpr std::size_t kKnown = SIZE_MAX;  // IAS signature held by `known`
  std::vector<Hash256> quote_digests(n);
  std::vector<std::size_t> ias_job(n, kKnown), sig_job(n);
  std::vector<crypto::VerifyJob> jobs;
  jobs.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const BlockCertificate& cert = *certs[i];
    quote_digests[i] = cert.report.quote.Digest();
    if (known == nullptr ||
        !known->Contains(quote_digests[i], cert.report.ias_signature)) {
      ias_job[i] = jobs.size();
      jobs.push_back({&ias_pk, &quote_digests[i], &cert.report.ias_signature});
    }
    sig_job[i] = jobs.size();
    jobs.push_back({&cert.pk_enc, &cert.digest, &cert.sig});
  }
  std::vector<bool> sig_ok = crypto::VerifyBatch(jobs.data(), jobs.size());

  // The check cascade of cert_verify_t, with the signature verdicts read
  // from the batch.
  std::vector<Status> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const BlockCertificate& cert = *certs[i];
    const bool checked = ias_job[i] != kKnown;
    const bool ias_ok = !checked || sig_ok[ias_job[i]];
    if (checked && ias_ok && known != nullptr) {
      known->Add(quote_digests[i], cert.report.ias_signature);
    }
    if (!ias_ok) {
      out.push_back(Status::Error("attestation report is not signed by the IAS"));
    } else if (cert.report.quote.measurement != expected_measurement) {
      out.push_back(Status::Error("certificate enclave measurement mismatch"));
    } else if (cert.report.quote.report_data != KeyBindingReportData(cert.pk_enc)) {
      out.push_back(
          Status::Error("enclave key does not match the attestation report"));
    } else if (!sig_ok[sig_job[i]]) {
      out.push_back(Status::Error("certificate signature invalid"));
    } else {
      out.push_back(Status::Ok());
    }
  }
  return out;
}

}  // namespace dcert::core
