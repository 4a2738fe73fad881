#include "dcert/issuer.h"

#include <stdexcept>
#include <utility>

#include "common/crash_point.h"
#include "common/thread_pool.h"
#include "common/timing.h"
#include "obs/metrics.h"

namespace dcert::core {

namespace {

/// Process-wide per-stage latency histograms for the certificate-issuance
/// pipeline, aggregated across every issuer instance (the per-call CertTiming
/// stays the exact view benches report).
struct CiMetrics {
  std::shared_ptr<obs::Histogram> rwset_ns;
  std::shared_ptr<obs::Histogram> proof_ns;
  std::shared_ptr<obs::Histogram> commit_ns;
  std::shared_ptr<obs::Histogram> enclave_ns;
  std::shared_ptr<obs::Histogram> index_aux_ns;
  std::shared_ptr<obs::Counter> blocks_certified;

  static CiMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static CiMetrics* m = new CiMetrics{
        reg.GetHistogram("ci.stage.rwset_ns"),
        reg.GetHistogram("ci.stage.proof_ns"),
        reg.GetHistogram("ci.stage.commit_ns"),
        reg.GetHistogram("ci.stage.enclave_ns"),
        reg.GetHistogram("ci.stage.index_aux_ns"),
        reg.GetCounter("ci.blocks_certified")};
    return *m;
  }
};

EnclaveConfig MakeEnclaveConfig(const chain::ChainConfig& config,
                                const chain::ContractRegistry& registry) {
  EnclaveConfig ec;
  ec.genesis_hash = chain::MakeGenesisBlock(config).header.Hash();
  ec.registry_digest = registry.Digest();
  ec.difficulty_bits = config.difficulty_bits;
  return ec;
}

}  // namespace

CertificateIssuer::CertificateIssuer(
    chain::ChainConfig config,
    std::shared_ptr<const chain::ContractRegistry> registry,
    sgxsim::CostModelParams cost_model, std::string key_seed)
    : config_(config),
      enclave_(kEnclaveProgramName, kEnclaveProgramVersion, cost_model),
      program_(MakeEnclaveConfig(config, *registry), registry, StrBytes(key_seed)),
      report_(sgxsim::AttestationService::Attest(program_.MakeKeyQuote(enclave_))),
      node_(config, std::move(registry)) {}

CertificateIssuer::CertificateIssuer(
    chain::ChainConfig config,
    std::shared_ptr<const chain::ContractRegistry> registry,
    sgxsim::Enclave enclave, CertEnclaveProgram program)
    : config_(config),
      enclave_(std::move(enclave)),
      program_(std::move(program)),
      report_(sgxsim::AttestationService::Attest(program_.MakeKeyQuote(enclave_))),
      node_(config, std::move(registry)) {}

Result<CertificateIssuer> CertificateIssuer::Restore(
    chain::ChainConfig config,
    std::shared_ptr<const chain::ContractRegistry> registry,
    ByteView sealed_key, sgxsim::CostModelParams cost_model) {
  using R = Result<CertificateIssuer>;
  sgxsim::Enclave enclave(kEnclaveProgramName, kEnclaveProgramVersion,
                          cost_model);
  auto program = CertEnclaveProgram::RestoreFromSealed(
      MakeEnclaveConfig(config, *registry), registry, enclave, sealed_key);
  if (!program) return R(program.status().WithContext("restore issuer"));
  return CertificateIssuer(config, std::move(registry), std::move(enclave),
                           std::move(program.value()));
}

void CertificateIssuer::AttachIndex(std::shared_ptr<CertifiedIndexHost> index) {
  if (!index) throw std::invalid_argument("AttachIndex: null index");
  if (FindSlot(index->Id()) != nullptr) {
    throw std::invalid_argument("AttachIndex: index id already attached: " +
                                index->Id());
  }
  IndexSlot slot;
  slot.digest = index->Verifier().GenesisDigest();
  slot.host = std::move(index);
  indexes_.push_back(std::move(slot));
}

const CertificateIssuer::IndexSlot* CertificateIssuer::FindSlot(
    const std::string& id) const {
  for (const IndexSlot& slot : indexes_) {
    if (slot.host->Id() == id) return &slot;
  }
  return nullptr;
}

const std::optional<IndexCertificate>& CertificateIssuer::LatestIndexCert(
    const std::string& id) const {
  if (const IndexSlot* slot = FindSlot(id)) return slot->cert;
  throw std::out_of_range("LatestIndexCert: unknown index id: " + id);
}

Status CertificateIssuer::CheckNoIndexAttached() const {
  if (!indexes_.empty()) {
    return Status::Error(
        "refused while indexes are attached: they would fall behind the "
        "chain");
  }
  return Status::Ok();
}

Status CertificateIssuer::CheckExtendsTip(const chain::Block& blk) const {
  const chain::BlockHeader& tip = node_.Tip().header;
  if (blk.header.prev_hash != tip.Hash() || blk.header.height != tip.height + 1) {
    return Status::Error("block does not extend the CI's tip");
  }
  return Status::Ok();
}

Result<CertificateIssuer::Prepared> CertificateIssuer::Prepare(
    const chain::Block& blk) {
  using R = Result<Prepared>;
  // comp_data_set (Alg. 1 line 2): execute on the current (pre-block) state.
  // Signatures are the enclave's to check (Alg. 2 line 19).
  Stopwatch rwset_watch;
  auto executed =
      chain::ExecuteBlockTxsUnchecked(blk.txs, node_.Registry(), node_.State());
  const std::uint64_t rwset_ns = rwset_watch.ElapsedNs();
  timing_.rwset_ns += rwset_ns;
  CiMetrics::Get().rwset_ns->Record(rwset_ns);
  if (!executed) return R(executed.status().WithContext("pre-processing"));

  // get_update_proof (Alg. 1 line 3).
  Stopwatch proof_watch;
  Prepared prepared;
  prepared.proof = BuildStateUpdateProof(executed.value().reads,
                                         executed.value().writes, node_.State());
  const std::uint64_t proof_ns = proof_watch.ElapsedNs();
  timing_.proof_ns += proof_ns;
  CiMetrics::Get().proof_ns->Record(proof_ns);
  prepared.writes = std::move(executed.value().writes);
  prepared.input_bytes = blk.ByteSize() + prepared.proof.ByteSize();
  return prepared;
}

template <typename F>
auto CertificateIssuer::RunEcall(std::uint64_t input_bytes, F&& fn)
    -> decltype(fn()) {
  const sgxsim::CostAccounting before = enclave_.Costs();
  auto result = enclave_.Ecall(input_bytes, std::forward<F>(fn));
  const sgxsim::CostAccounting& after = enclave_.Costs();
  const std::uint64_t wall_ns = after.wall_ns() - before.wall_ns();
  timing_.enclave_wall_ns += wall_ns;
  timing_.enclave_modeled_ns +=
      after.ModeledEnclaveTimeNs() - before.ModeledEnclaveTimeNs();
  timing_.ecalls += 1;
  CiMetrics::Get().enclave_ns->Record(wall_ns);
  return result;
}

std::vector<Bytes> CertificateIssuer::CaptureAux(std::span<const IndexSlot> slots,
                                                 const chain::Block& blk) {
  if (slots.empty()) return {};
  std::vector<Bytes> auxes(slots.size());
  Stopwatch aux_watch;
  common::ThreadPool::Shared().ParallelFor(slots.size(), [&](std::size_t i) {
    auxes[i] = slots[i].host->ApplyBlockCapturingAux(blk);
  });
  const std::uint64_t aux_ns = aux_watch.ElapsedNs();
  timing_.index_aux_ns += aux_ns;
  CiMetrics::Get().index_aux_ns->Record(aux_ns);
  return auxes;
}

Result<crypto::Signature> CertificateIssuer::IndexEcall(
    const IndexSlot& slot, const chain::Block& blk,
    const chain::BlockHeader& prev_hdr, const BlockCertificate& block_cert,
    ByteView aux, Hash256& digest) {
  return RunEcall(blk.ByteSize() + aux.size(), [&] {
    return program_.IndexSigGen(prev_hdr, slot.cert, slot.digest, blk, block_cert,
                                slot.host->Verifier(), aux, digest);
  });
}

BlockCertificate CertificateIssuer::AssembleCert(
    const Hash256& digest, const crypto::Signature& sig) const {
  BlockCertificate cert;
  cert.pk_enc = program_.PublicKey();
  cert.report = report_;
  cert.digest = digest;
  cert.sig = sig;
  return cert;
}

Status CertificateIssuer::Commit(const chain::Block& blk,
                                 const chain::StateMap* verified_writes,
                                 const std::optional<BlockCertificate>& cert,
                                 std::vector<IndexSlot> slots) {
  Stopwatch commit_watch;
  Status st = verified_writes != nullptr
                  ? node_.AppendExecuted(blk, *verified_writes)
                  : node_.SubmitBlock(blk);
  const std::uint64_t commit_ns = commit_watch.ElapsedNs();
  timing_.commit_ns += commit_ns;
  CiMetrics::Get().commit_ns->Record(commit_ns);
  if (!st) return st.WithContext("commit");
  if (cert) {
    latest_cert_ = cert;
    block_certs_.push_back(*cert);
  } else {
    block_certs_.clear();
  }
  if (!slots.empty()) indexes_ = std::move(slots);
  return Status::Ok();
}

Result<std::vector<IndexCertificate>> CertificateIssuer::Certify(
    const chain::Block& blk, Scheme scheme) {
  using R = Result<std::vector<IndexCertificate>>;
  timing_ = CertTiming{};
  timing_.blocks = 1;

  // Prepare.
  if (Status st = CheckExtendsTip(blk); !st) return R(st);
  for (const IndexSlot& slot : indexes_) {
    if (slot.host->CurrentDigest() != slot.digest) {
      return R::Error("live index is not at its certified digest: " +
                      slot.host->Id());
    }
  }
  auto prepared = Prepare(blk);
  if (!prepared) return R(prepared.status());
  const Prepared& p = prepared.value();
  const chain::BlockHeader prev_hdr = node_.Tip().header;

  // Ecalls. Alg. 5 line 1 (and Alg. 1): the block certificate.
  std::optional<BlockCertificate> block_cert;
  if (scheme == Scheme::kHierarchical) {
    common::CrashPoints::Global().Hit("issuer.process.ecall");
    auto sig = RunEcall(p.input_bytes, [&] {
      return program_.SigGen(prev_hdr, latest_cert_, blk, p.proof);
    });
    if (!sig) return R(sig.status().WithContext("ecall_sig_gen"));
    block_cert = AssembleCert(blk.header.Hash(), sig.value());
  }
  // Alg. 5 lines 2-18 / Alg. 4: every index's aux capture, then one Ecall
  // per index in attachment order (the enclave stays strictly serial).
  const std::vector<Bytes> auxes = CaptureAux(indexes_, blk);
  std::vector<IndexSlot> updated;
  std::vector<IndexCertificate> certs;
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    const IndexSlot& slot = indexes_[i];
    Hash256 digest;
    auto sig =
        block_cert
            ? IndexEcall(slot, blk, prev_hdr, *block_cert, auxes[i], digest)
            : RunEcall(p.input_bytes + auxes[i].size(), [&] {
                return program_.AugmentedSigGen(prev_hdr, slot.cert, slot.digest,
                                                blk, p.proof,
                                                slot.host->Verifier(), auxes[i],
                                                digest);
              });
    const std::string id = slot.host->Id();
    if (!sig) {
      return R(sig.status().WithContext(
          (block_cert ? "index ecall for " : "augmented ecall for ") + id));
    }
    if (slot.host->CurrentDigest() != digest) {
      return R::Error("live index diverged from certified digest: " + id);
    }
    certs.push_back(
        AssembleCert(IndexCertDigest(blk.header.Hash(), digest), sig.value()));
    updated.push_back({slot.host, digest, certs.back()});
  }

  // Commit.
  if (Status st = Commit(blk, &p.writes, block_cert, std::move(updated)); !st) {
    return R(st);
  }
  CiMetrics::Get().blocks_certified->Add(1);
  return certs;
}

Result<BlockCertificate> CertificateIssuer::ProcessBlock(const chain::Block& blk) {
  using R = Result<BlockCertificate>;
  auto certified = Certify(blk, Scheme::kHierarchical);
  if (!certified) return R(certified.status());
  return *latest_cert_;
}

Result<std::vector<IndexCertificate>> CertificateIssuer::ProcessBlockAugmented(
    const chain::Block& blk) {
  using R = Result<std::vector<IndexCertificate>>;
  if (indexes_.empty()) return R::Error("no indexes attached");
  return Certify(blk, Scheme::kAugmented);
}

Result<std::vector<IndexCertificate>> CertificateIssuer::ProcessBlockHierarchical(
    const chain::Block& blk) {
  using R = Result<std::vector<IndexCertificate>>;
  if (indexes_.empty()) return R::Error("no indexes attached");
  return Certify(blk, Scheme::kHierarchical);
}

Result<BlockCertificate> CertificateIssuer::ProcessBlockBatch(
    const std::vector<chain::Block>& blocks) {
  using R = Result<BlockCertificate>;
  if (Status st = CheckNoIndexAttached(); !st) return R(st);
  timing_ = CertTiming{};
  timing_.blocks = blocks.size();
  if (blocks.empty()) return R::Error("empty batch");

  const chain::BlockHeader prev_hdr = node_.Tip().header;
  const std::optional<BlockCertificate> prev_cert = latest_cert_;

  // Pre-process each block against its own pre-state, exactly as the
  // enclave will chain them: each block but the last is committed (fully
  // validated, no certificate of its own) before its successor's Prepare.
  std::vector<StateUpdateProof> proofs;
  std::uint64_t input_bytes = 0;
  chain::StateMap last_writes;
  proofs.reserve(blocks.size());
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i > 0) {
      if (Status st = Commit(blocks[i - 1], nullptr, std::nullopt); !st) {
        return R(st);
      }
    }
    if (Status st = CheckExtendsTip(blocks[i]); !st) return R(st);
    auto prepared = Prepare(blocks[i]);
    if (!prepared) return R(prepared.status());
    input_bytes += prepared.value().input_bytes;
    proofs.push_back(std::move(prepared.value().proof));
    last_writes = std::move(prepared.value().writes);
  }

  auto sig = RunEcall(input_bytes, [&] {
    return program_.SigGenSpan(prev_hdr, prev_cert, blocks, proofs);
  });
  if (!sig) return R(sig.status().WithContext("ecall_sig_gen_span"));
  BlockCertificate cert = AssembleCert(blocks.back().header.Hash(), sig.value());
  if (Status st = Commit(blocks.back(), &last_writes, cert); !st) return R(st);
  CiMetrics::Get().blocks_certified->Add(blocks.size());
  return cert;
}

Status CertificateIssuer::InstallSnapshot(const chain::Block& tip,
                                          const chain::StateMap& state,
                                          const BlockCertificate& tip_cert) {
  if (node_.Height() != 0 || latest_cert_.has_value()) {
    return Status::Error("snapshot install requires an issuer still at genesis");
  }
  if (Status st =
          VerifyCertificateEnvelope(tip_cert, ExpectedEnclaveMeasurement());
      !st) {
    return st.WithContext("snapshot certificate");
  }
  if (tip_cert.digest != tip.header.Hash()) {
    return Status::Error("snapshot certificate does not cover the snapshot tip");
  }
  if (Status st = node_.InstallSnapshot(tip, state); !st) {
    return st.WithContext("snapshot install");
  }
  latest_cert_ = tip_cert;
  return Status::Ok();
}

Status CertificateIssuer::AcceptBlockWithCert(const chain::Block& blk,
                                              const BlockCertificate& cert) {
  if (Status st = CheckNoIndexAttached(); !st) return st;
  if (Status st = CheckExtendsTip(blk); !st) return st;
  if (Status st = VerifyCertificateEnvelope(cert, ExpectedEnclaveMeasurement());
      !st) {
    return st.WithContext("foreign certificate");
  }
  if (cert.digest != blk.header.Hash()) {
    return Status::Error("foreign certificate does not cover this block");
  }
  // Full local validation before adopting (the CI is still a full node).
  return Commit(blk, nullptr, cert);
}

Result<IndexCertificate> CertificateIssuer::AttachIndexWithBackfill(
    std::shared_ptr<CertifiedIndexHost> index) {
  using R = Result<IndexCertificate>;
  if (!index) throw std::invalid_argument("AttachIndexWithBackfill: null index");
  timing_ = CertTiming{};
  if (FindSlot(index->Id()) != nullptr) {
    return R::Error("index id already attached: " + index->Id());
  }
  if (index->CurrentDigest() != index->Verifier().GenesisDigest()) {
    return R::Error("backfill needs a fresh index: " + index->Id() +
                    " is not at its genesis digest");
  }
  const std::uint64_t height = node_.Height();
  if (height == 0) {
    return R::Error("chain is at genesis; use AttachIndex instead");
  }
  if (block_certs_.size() != height) {
    return R::Error(
        "backfill needs a block certificate per block (not available in "
        "augmented-only operation)");
  }

  IndexSlot slot;
  slot.digest = index->Verifier().GenesisDigest();
  slot.host = std::move(index);
  for (std::uint64_t h = 1; h <= height; ++h) {
    const chain::Block& blk = node_.GetBlock(h);
    const Bytes aux = std::move(CaptureAux({&slot, 1}, blk).front());
    Hash256 digest;
    auto sig = IndexEcall(slot, blk, node_.GetBlock(h - 1).header,
                          block_certs_[static_cast<std::size_t>(h) - 1], aux,
                          digest);
    if (!sig) {
      return R(sig.status()
                   .WithContext("index ecall for " + slot.host->Id())
                   .WithContext("backfill height " + std::to_string(h)));
    }
    slot.cert = AssembleCert(IndexCertDigest(blk.header.Hash(), digest),
                             sig.value());
    slot.digest = digest;
  }
  if (slot.host->CurrentDigest() != slot.digest) {
    return R::Error("backfilled index diverged from certified digest");
  }
  IndexCertificate tip_cert = *slot.cert;
  indexes_.push_back(std::move(slot));
  return tip_cert;
}

}  // namespace dcert::core
