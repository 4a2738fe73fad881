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
  IndexSlot slot;
  slot.digest = index->Verifier().GenesisDigest();
  slot.host = std::move(index);
  indexes_.push_back(std::move(slot));
}

const std::optional<IndexCertificate>& CertificateIssuer::LatestIndexCert(
    const std::string& id) const {
  for (const IndexSlot& slot : indexes_) {
    if (slot.host->Id() == id) return slot.cert;
  }
  throw std::out_of_range("LatestIndexCert: unknown index id: " + id);
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
                                 const chain::StateMap* verified_writes) {
  Stopwatch commit_watch;
  Status st = verified_writes != nullptr
                  ? node_.AppendExecuted(blk, *verified_writes)
                  : node_.SubmitBlock(blk);
  const std::uint64_t commit_ns = commit_watch.ElapsedNs();
  timing_.commit_ns += commit_ns;
  CiMetrics::Get().commit_ns->Record(commit_ns);
  if (!st) return st.WithContext("commit");
  return Status::Ok();
}

Result<BlockCertificate> CertificateIssuer::ProcessBlock(const chain::Block& blk) {
  using R = Result<BlockCertificate>;
  timing_ = CertTiming{};
  timing_.blocks = 1;
  if (Status st = CheckExtendsTip(blk); !st) return R(st);

  auto prepared = Prepare(blk);
  if (!prepared) return R(prepared.status());

  const chain::BlockHeader prev_hdr = node_.Tip().header;
  const std::optional<BlockCertificate> prev_cert = latest_cert_;

  common::CrashPoints::Global().Hit("issuer.process.ecall");
  const sgxsim::CostAccounting before = enclave_.Costs();
  auto sig = enclave_.Ecall(prepared.value().input_bytes, [&] {
    return program_.SigGen(prev_hdr, prev_cert, blk, prepared.value().proof);
  });
  {
    const std::uint64_t enclave_ns = enclave_.Costs().wall_ns() - before.wall_ns();
    timing_.enclave_wall_ns += enclave_ns;
    CiMetrics::Get().enclave_ns->Record(enclave_ns);
  }
  timing_.enclave_modeled_ns +=
      enclave_.Costs().ModeledEnclaveTimeNs() - before.ModeledEnclaveTimeNs();
  timing_.ecalls += 1;
  if (!sig) return R(sig.status().WithContext("ecall_sig_gen"));

  BlockCertificate cert = AssembleCert(blk.header.Hash(), sig.value());
  if (Status st = Commit(blk, &prepared.value().writes); !st) return R(st);
  latest_cert_ = cert;
  block_certs_.push_back(cert);
  CiMetrics::Get().blocks_certified->Add(1);
  return cert;
}

Result<BlockCertificate> CertificateIssuer::ProcessBlockBatch(
    const std::vector<chain::Block>& blocks) {
  using R = Result<BlockCertificate>;
  timing_ = CertTiming{};
  timing_.blocks = blocks.size();
  if (blocks.empty()) return R::Error("empty batch");

  const chain::BlockHeader prev_hdr = node_.Tip().header;
  const std::optional<BlockCertificate> prev_cert = latest_cert_;

  // Pre-process each block against its own pre-state (the node advances
  // between preparations, exactly as the enclave will chain them).
  std::vector<StateUpdateProof> proofs;
  std::uint64_t input_bytes = 0;
  proofs.reserve(blocks.size());
  for (const chain::Block& blk : blocks) {
    if (Status st = CheckExtendsTip(blk); !st) return R(st);
    auto prepared = Prepare(blk);
    if (!prepared) return R(prepared.status());
    input_bytes += prepared.value().input_bytes;
    proofs.push_back(std::move(prepared.value().proof));
    if (Status st = Commit(blk); !st) return R(st);
  }

  const sgxsim::CostAccounting before = enclave_.Costs();
  auto sig = enclave_.Ecall(input_bytes, [&] {
    return program_.SigGenSpan(prev_hdr, prev_cert, blocks, proofs);
  });
  {
    const std::uint64_t enclave_ns = enclave_.Costs().wall_ns() - before.wall_ns();
    timing_.enclave_wall_ns += enclave_ns;
    CiMetrics::Get().enclave_ns->Record(enclave_ns);
  }
  timing_.enclave_modeled_ns +=
      enclave_.Costs().ModeledEnclaveTimeNs() - before.ModeledEnclaveTimeNs();
  timing_.ecalls += 1;
  if (!sig) return R(sig.status().WithContext("ecall_sig_gen_span"));

  BlockCertificate cert = AssembleCert(blocks.back().header.Hash(), sig.value());
  latest_cert_ = cert;
  CiMetrics::Get().blocks_certified->Add(blocks.size());
  // Intermediate blocks carry no certificate; record the span certificate at
  // every covered height so backfill can still anchor to it? No — backfill
  // requires per-block certs, so batched operation disables it (documented).
  block_certs_.clear();
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
  if (Status st = CheckExtendsTip(blk); !st) return st;
  if (Status st = VerifyCertificateEnvelope(cert, ExpectedEnclaveMeasurement());
      !st) {
    return st.WithContext("foreign certificate");
  }
  if (cert.digest != blk.header.Hash()) {
    return Status::Error("foreign certificate does not cover this block");
  }
  // Full local validation before adopting (the CI is still a full node).
  if (Status st = Commit(blk); !st) return st;
  latest_cert_ = cert;
  block_certs_.push_back(cert);
  return Status::Ok();
}

Result<std::vector<IndexCertificate>> CertificateIssuer::ProcessBlockAugmented(
    const chain::Block& blk) {
  using R = Result<std::vector<IndexCertificate>>;
  timing_ = CertTiming{};
  timing_.blocks = 1;
  if (Status st = CheckExtendsTip(blk); !st) return R(st);
  if (indexes_.empty()) return R::Error("no indexes attached");

  auto prepared = Prepare(blk);
  if (!prepared) return R(prepared.status());
  const chain::BlockHeader prev_hdr = node_.Tip().header;

  std::vector<IndexCertificate> certs;
  std::vector<Hash256> new_digests;
  for (IndexSlot& slot : indexes_) {
    Stopwatch aux_watch;
    Bytes aux = slot.host->ApplyBlockCapturingAux(blk);
    {
    const std::uint64_t aux_ns = aux_watch.ElapsedNs();
    timing_.index_aux_ns += aux_ns;
    CiMetrics::Get().index_aux_ns->Record(aux_ns);
  }

    Hash256 new_digest;
    const sgxsim::CostAccounting before = enclave_.Costs();
    auto sig = enclave_.Ecall(prepared.value().input_bytes + aux.size(), [&] {
      return program_.AugmentedSigGen(prev_hdr, slot.cert, slot.digest, blk,
                                      prepared.value().proof,
                                      slot.host->Verifier(), aux, new_digest);
    });
    timing_.enclave_wall_ns += enclave_.Costs().wall_ns() - before.wall_ns();
    timing_.enclave_modeled_ns +=
        enclave_.Costs().ModeledEnclaveTimeNs() - before.ModeledEnclaveTimeNs();
    timing_.ecalls += 1;
    if (!sig) {
      return R(sig.status().WithContext("augmented ecall for " + slot.host->Id()));
    }
    certs.push_back(
        AssembleCert(IndexCertDigest(blk.header.Hash(), new_digest), sig.value()));
    new_digests.push_back(new_digest);
  }

  if (Status st = Commit(blk, &prepared.value().writes); !st) return R(st);
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    indexes_[i].digest = new_digests[i];
    indexes_[i].cert = certs[i];
    // Sanity: the live index must land exactly on the certified digest.
    if (indexes_[i].host->CurrentDigest() != new_digests[i]) {
      return R::Error("live index diverged from certified digest: " +
                      indexes_[i].host->Id());
    }
  }
  CiMetrics::Get().blocks_certified->Add(1);
  return certs;
}

Result<std::vector<IndexCertificate>> CertificateIssuer::ProcessBlockHierarchical(
    const chain::Block& blk) {
  using R = Result<std::vector<IndexCertificate>>;
  timing_ = CertTiming{};
  timing_.blocks = 1;
  if (Status st = CheckExtendsTip(blk); !st) return R(st);
  if (indexes_.empty()) return R::Error("no indexes attached");

  auto prepared = Prepare(blk);
  if (!prepared) return R(prepared.status());
  const chain::BlockHeader prev_hdr = node_.Tip().header;
  const std::optional<BlockCertificate> prev_cert = latest_cert_;

  // Alg. 5 line 1: the block certificate, one Ecall.
  const sgxsim::CostAccounting before_blk = enclave_.Costs();
  auto blk_sig = enclave_.Ecall(prepared.value().input_bytes, [&] {
    return program_.SigGen(prev_hdr, prev_cert, blk, prepared.value().proof);
  });
  {
    const std::uint64_t enclave_ns =
        enclave_.Costs().wall_ns() - before_blk.wall_ns();
    timing_.enclave_wall_ns += enclave_ns;
    CiMetrics::Get().enclave_ns->Record(enclave_ns);
  }
  timing_.enclave_modeled_ns +=
      enclave_.Costs().ModeledEnclaveTimeNs() - before_blk.ModeledEnclaveTimeNs();
  timing_.ecalls += 1;
  if (!blk_sig) return R(blk_sig.status().WithContext("ecall_sig_gen"));
  BlockCertificate block_cert = AssembleCert(blk.header.Hash(), blk_sig.value());

  // Alg. 5 lines 2-18: aux-proof capture first, concurrently across the
  // independent index hosts (index_aux_ns records the region's wall time —
  // the actual outside-enclave cost), then one lightweight Ecall per index
  // in attachment order (the enclave stays strictly serial).
  std::vector<Bytes> auxes(indexes_.size());
  Stopwatch aux_watch;
  common::ThreadPool::Shared().ParallelFor(indexes_.size(), [&](std::size_t i) {
    auxes[i] = indexes_[i].host->ApplyBlockCapturingAux(blk);
  });
  {
    const std::uint64_t aux_ns = aux_watch.ElapsedNs();
    timing_.index_aux_ns += aux_ns;
    CiMetrics::Get().index_aux_ns->Record(aux_ns);
  }

  std::vector<IndexCertificate> certs;
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    if (Status st = CertifyIndexStepWithAux(indexes_[i], blk, prev_hdr,
                                            block_cert, std::move(auxes[i]));
        !st) {
      return R(st);
    }
    certs.push_back(*indexes_[i].cert);
  }

  if (Status st = Commit(blk, &prepared.value().writes); !st) return R(st);
  latest_cert_ = block_cert;
  block_certs_.push_back(block_cert);
  for (const IndexSlot& slot : indexes_) {
    if (slot.host->CurrentDigest() != slot.digest) {
      return R::Error("live index diverged from certified digest: " +
                      slot.host->Id());
    }
  }
  CiMetrics::Get().blocks_certified->Add(1);
  return certs;
}

Status CertificateIssuer::CertifyIndexStep(IndexSlot& slot, const chain::Block& blk,
                                           const chain::BlockHeader& prev_hdr,
                                           const BlockCertificate& block_cert) {
  Stopwatch aux_watch;
  Bytes aux = slot.host->ApplyBlockCapturingAux(blk);
  {
    const std::uint64_t aux_ns = aux_watch.ElapsedNs();
    timing_.index_aux_ns += aux_ns;
    CiMetrics::Get().index_aux_ns->Record(aux_ns);
  }
  return CertifyIndexStepWithAux(slot, blk, prev_hdr, block_cert, std::move(aux));
}

Status CertificateIssuer::CertifyIndexStepWithAux(
    IndexSlot& slot, const chain::Block& blk, const chain::BlockHeader& prev_hdr,
    const BlockCertificate& block_cert, Bytes aux) {
  Hash256 new_digest;
  const sgxsim::CostAccounting before = enclave_.Costs();
  auto sig = enclave_.Ecall(blk.ByteSize() + aux.size(), [&] {
    return program_.IndexSigGen(prev_hdr, slot.cert, slot.digest, blk, block_cert,
                                slot.host->Verifier(), aux, new_digest);
  });
  {
    const std::uint64_t enclave_ns = enclave_.Costs().wall_ns() - before.wall_ns();
    timing_.enclave_wall_ns += enclave_ns;
    CiMetrics::Get().enclave_ns->Record(enclave_ns);
  }
  timing_.enclave_modeled_ns +=
      enclave_.Costs().ModeledEnclaveTimeNs() - before.ModeledEnclaveTimeNs();
  timing_.ecalls += 1;
  if (!sig) return sig.status().WithContext("index ecall for " + slot.host->Id());
  slot.cert = AssembleCert(IndexCertDigest(blk.header.Hash(), new_digest),
                           sig.value());
  slot.digest = new_digest;
  return Status::Ok();
}

Result<IndexCertificate> CertificateIssuer::AttachIndexWithBackfill(
    std::shared_ptr<CertifiedIndexHost> index) {
  using R = Result<IndexCertificate>;
  if (!index) throw std::invalid_argument("AttachIndexWithBackfill: null index");
  timing_ = CertTiming{};
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
    const chain::BlockHeader& prev_hdr = node_.GetBlock(h - 1).header;
    if (Status st = CertifyIndexStep(slot, blk, prev_hdr,
                                     block_certs_[static_cast<std::size_t>(h) - 1]);
        !st) {
      return R(st.WithContext("backfill height " + std::to_string(h)));
    }
  }
  if (slot.host->CurrentDigest() != slot.digest) {
    return R::Error("backfilled index diverged from certified digest");
  }
  IndexCertificate tip_cert = *slot.cert;
  indexes_.push_back(std::move(slot));
  return tip_cert;
}

}  // namespace dcert::core
