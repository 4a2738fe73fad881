#include "crypto/signature.h"

#include <map>
#include <stdexcept>
#include <utility>

#include "crypto/sha256.h"

namespace dcert::crypto {

namespace {

// Tagged hash (BIP340 style): H(H(tag) || H(tag) || payload) gives domain
// separation between the challenge hash and every other SHA-256 use.
Hash256 TaggedHash(std::string_view tag, ByteView payload) {
  Hash256 tag_hash = Sha256::Digest(StrBytes(tag));
  Sha256 ctx;
  ctx.Update(tag_hash.View());
  ctx.Update(tag_hash.View());
  ctx.Update(payload);
  return ctx.Finalize();
}

U256 ChallengeScalar(const U256& rx, const PublicKey& pk, const Hash256& digest) {
  Bytes payload = rx.ToBytesBE();
  Bytes pk_bytes = pk.Serialize();
  payload.insert(payload.end(), pk_bytes.begin(), pk_bytes.end());
  Append(payload, digest);
  Hash256 e = TaggedHash("DCert/challenge", payload);
  return Curve().Fn().Reduce(U256::FromHash(e));
}

}  // namespace

Bytes Signature::Serialize() const {
  Bytes out = r.ToBytesBE();
  Bytes sb = s.ToBytesBE();
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

std::optional<Signature> Signature::Deserialize(ByteView bytes64) {
  if (bytes64.size() != 64) return std::nullopt;
  Signature sig;
  sig.r = U256::FromBytesBE(bytes64.subspan(0, 32));
  sig.s = U256::FromBytesBE(bytes64.subspan(32, 32));
  if (sig.r >= Curve().P() || sig.s >= Curve().N()) return std::nullopt;
  return sig;
}

std::optional<PublicKey> PublicKey::Deserialize(ByteView bytes64) {
  auto point = AffinePoint::Deserialize(bytes64);
  if (!point) return std::nullopt;
  return PublicKey{*point};
}

SecretKey SecretKey::FromSeed(ByteView seed) {
  const ModArith& fn = Curve().Fn();
  // Hash the seed with an incrementing counter until we land in [1, n).
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes material(seed.begin(), seed.end());
    for (int i = 0; i < 4; ++i) {
      material.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
    }
    Hash256 h = TaggedHash("DCert/keygen", material);
    U256 candidate = fn.Reduce(U256::FromHash(h));
    if (candidate.IsZero()) continue;
    AffinePoint pub = ScalarMulBase(candidate).ToAffine();
    return SecretKey(candidate, PublicKey{pub});
  }
}

SecretKey SecretKey::FromScalarBytes(ByteView scalar32) {
  if (scalar32.size() != 32) {
    throw std::invalid_argument("SecretKey::FromScalarBytes: need 32 bytes");
  }
  U256 scalar = U256::FromBytesBE(scalar32);
  if (scalar.IsZero() || !(scalar < Curve().N())) {
    throw std::invalid_argument("SecretKey::FromScalarBytes: scalar out of range");
  }
  AffinePoint pub = ScalarMulBase(scalar).ToAffine();
  return SecretKey(scalar, PublicKey{pub});
}

Signature SecretKey::Sign(const Hash256& digest32) const {
  const ModArith& fn = Curve().Fn();
  // Deterministic nonce: HMAC(sk, digest || counter), retried on k == 0.
  Bytes sk_bytes = scalar_.ToBytesBE();
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes message = digest32.ToBytes();
    for (int i = 0; i < 4; ++i) {
      message.push_back(static_cast<std::uint8_t>(counter >> (8 * i)));
    }
    U256 k = fn.Reduce(U256::FromHash(HmacSha256(sk_bytes, message)));
    if (k.IsZero()) continue;

    AffinePoint r_point = ScalarMulBase(k).ToAffine();
    // Normalize to an even-Y nonce point so verification needs no Y byte.
    if (r_point.y.IsOdd()) {
      k = fn.Neg(k);
      r_point.y = Curve().Fp().Neg(r_point.y);
    }

    U256 e = ChallengeScalar(r_point.x, public_key_, digest32);
    U256 s = fn.Add(k, fn.Mul(e, scalar_));
    return Signature{r_point.x, s};
  }
}

bool Verify(const PublicKey& pk, const Hash256& digest32, const Signature& sig) {
  const ModArith& fn = Curve().Fn();
  if (sig.r >= Curve().P() || sig.s >= Curve().N()) return false;
  if (pk.point.infinity || !pk.point.IsOnCurve()) return false;

  U256 e = ChallengeScalar(sig.r, pk, digest32);
  // R' = s*G - e*P; accept iff R' is affine with even Y and X == sig.r.
  JacobianPoint r_prime = DoubleScalarMul(sig.s, fn.Neg(e), pk.point);
  if (r_prime.IsInfinity()) return false;
  AffinePoint r_affine = r_prime.ToAffine();
  return !r_affine.y.IsOdd() && r_affine.x == sig.r;
}

namespace {

/// One structurally valid signature prepared for the combined equation:
/// s*G = R + e*P with R = lift_x(r).
struct BatchTerm {
  std::size_t job_index = 0;
  U256 a;            // random combination coefficient (a_0 = 1)
  U256 s;            // signature scalar
  U256 ae;           // a * e mod n
  AffinePoint r;     // lifted nonce point
  const PublicKey* pk = nullptr;
};

/// Evaluates Σ a_i s_i * G - Σ a_i R_i - Σ (Σ_pk a_i e_i) P_pk == ∞ over
/// terms [lo, hi), merging the P scalars per distinct public key.
bool CombinedCheck(const std::vector<BatchTerm>& terms, std::size_t lo,
                   std::size_t hi) {
  const ModArith& fn = Curve().Fn();
  U256 s_sum(0);
  // Terms of one key merge into one scalar; keyed by the point itself.
  std::map<std::pair<U256, U256>, std::pair<const PublicKey*, U256>> per_pk;
  std::vector<MsmTerm> msm;
  msm.reserve(hi - lo + 2);
  for (std::size_t i = lo; i < hi; ++i) {
    const BatchTerm& t = terms[i];
    s_sum = fn.Add(s_sum, fn.Mul(t.a, t.s));
    msm.push_back({fn.Neg(t.a), t.r});
    auto [it, fresh] =
        per_pk.try_emplace({t.pk->point.x, t.pk->point.y}, t.pk, t.ae);
    if (!fresh) it->second.second = fn.Add(it->second.second, t.ae);
  }
  msm.push_back({s_sum, Generator()});
  for (const auto& [point, entry] : per_pk) {
    msm.push_back({fn.Neg(entry.second), entry.first->point});
  }
  return MultiScalarMul(msm.data(), msm.size()).IsInfinity();
}

/// Marks results for terms [lo, hi): one combined check when the slice is
/// big enough, bisecting on failure, single Verify at the leaves.
void ResolveSlice(const std::vector<BatchTerm>& terms, std::size_t lo,
                  std::size_t hi, const VerifyJob* jobs,
                  std::vector<bool>& results) {
  if (hi - lo >= 2 && CombinedCheck(terms, lo, hi)) {
    for (std::size_t i = lo; i < hi; ++i) results[terms[i].job_index] = true;
    return;
  }
  if (hi - lo <= 1) {
    for (std::size_t i = lo; i < hi; ++i) {
      const VerifyJob& job = jobs[terms[i].job_index];
      results[terms[i].job_index] = Verify(*job.pk, *job.digest, *job.sig);
    }
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  ResolveSlice(terms, lo, mid, jobs, results);
  ResolveSlice(terms, mid, hi, jobs, results);
}

}  // namespace

std::vector<bool> VerifyBatch(const VerifyJob* jobs, std::size_t n) {
  std::vector<bool> results(n, false);
  if (n == 0) return results;
  if (n == 1) {
    results[0] = Verify(*jobs[0].pk, *jobs[0].digest, *jobs[0].sig);
    return results;
  }
  const ModArith& fn = Curve().Fn();

  // Structural screening mirrors Verify exactly; jobs failing it are final
  // rejects and never enter the combined equation.
  std::vector<BatchTerm> terms;
  terms.reserve(n);
  Sha256 transcript_ctx;
  for (std::size_t i = 0; i < n; ++i) {
    const VerifyJob& job = jobs[i];
    if (job.sig->r >= Curve().P() || job.sig->s >= Curve().N()) continue;
    if (job.pk->point.infinity || !job.pk->point.IsOnCurve()) continue;
    auto lifted = LiftX(job.sig->r);
    if (!lifted) continue;  // Verify would fail: no R with this x exists
    BatchTerm t;
    t.job_index = i;
    t.s = job.sig->s;
    t.r = *lifted;
    t.pk = job.pk;
    U256 e = ChallengeScalar(job.sig->r, *job.pk, *job.digest);
    t.ae = e;  // scaled by a below
    terms.push_back(t);
    transcript_ctx.Update(job.sig->r.ToHash().View());
    transcript_ctx.Update(job.sig->s.ToHash().View());
    Bytes pk_bytes = job.pk->Serialize();
    transcript_ctx.Update(pk_bytes);
    transcript_ctx.Update(job.digest->View());
  }
  if (terms.empty()) return results;

  // Combination coefficients: a_0 = 1, the rest derived from the whole batch
  // transcript (a forger cannot choose signatures after seeing them).
  Hash256 transcript = transcript_ctx.Finalize();
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i == 0) {
      terms[i].a = U256(1);
    } else {
      Bytes material = transcript.ToBytes();
      for (int b = 0; b < 8; ++b) {
        material.push_back(static_cast<std::uint8_t>(i >> (8 * b)));
      }
      Hash256 h = TaggedHash("DCert/batchcoeff", material);
      U256 a = fn.Reduce(U256::FromHash(h));
      terms[i].a = a.IsZero() ? U256(1) : a;
    }
    terms[i].ae = fn.Mul(terms[i].a, terms[i].ae);
  }

  ResolveSlice(terms, 0, terms.size(), jobs, results);
  return results;
}

}  // namespace dcert::crypto
