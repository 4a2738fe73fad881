// The SGX-enabled Certificate Issuer (CI): a full node that pre-processes
// blocks outside the enclave (Alg. 1 lines 2-3), drives the trusted program
// through Ecalls, assembles certificates, and — for verifiable queries —
// certifies attached authenticated indexes with the augmented (Alg. 4) or
// hierarchical (Alg. 5) scheme.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/node.h"
#include "common/status.h"
#include "dcert/certificate.h"
#include "dcert/enclave_program.h"
#include "dcert/index_verifier.h"
#include "sgxsim/enclave.h"

namespace dcert::core {

/// Host-side handle for an authenticated index the CI certifies. The live
/// index (usually co-maintained with an SP) captures pre-state auxiliary
/// proofs while applying each block: successive appends within one block
/// depend on each other, so proof capture and application are one pass.
/// The issuer cannot undo an apply: a block refused after the capture
/// leaves the live index ahead of its certified digest, and the issuer then
/// refuses every block, naming that index (a production CI would snapshot
/// and roll back).
class CertifiedIndexHost {
 public:
  virtual ~CertifiedIndexHost() = default;
  virtual std::string Id() const = 0;
  virtual const IndexUpdateVerifier& Verifier() const = 0;
  /// Digest of the live index (post-apply once ApplyBlockCapturingAux ran).
  virtual Hash256 CurrentDigest() const = 0;
  /// Applies `blk` to the live index and returns the auxiliary proof
  /// material (captured against the pre-state) for the enclave.
  virtual Bytes ApplyBlockCapturingAux(const chain::Block& blk) = 0;
};

/// Per-block certificate construction cost breakdown (Figs. 8-10). The
/// stages run one after another, so they sum to the elapsed time.
struct CertTiming {
  std::uint64_t rwset_ns = 0;            // outside: execution + r/w set gen
  std::uint64_t proof_ns = 0;            // outside: Merkle proof generation
  std::uint64_t index_aux_ns = 0;        // outside: index aux proof generation
  std::uint64_t commit_ns = 0;           // outside: full-node append
  std::uint64_t enclave_wall_ns = 0;     // inside: raw wall time
  std::uint64_t enclave_modeled_ns = 0;  // inside: with modelled SGX overheads
  std::uint64_t ecalls = 0;
  std::uint64_t blocks = 0;              // blocks covered by this window

  double OutsideMs() const {
    return static_cast<double>(rwset_ns + proof_ns + index_aux_ns) / 1e6;
  }
  double TotalMs(bool modeled) const {
    return OutsideMs() +
           static_cast<double>(modeled ? enclave_modeled_ns : enclave_wall_ns) / 1e6;
  }
};

class CertificateIssuer {
 public:
  CertificateIssuer(chain::ChainConfig config,
                    std::shared_ptr<const chain::ContractRegistry> registry,
                    sgxsim::CostModelParams cost_model = {},
                    std::string key_seed = "dcert-ci-key");

  /// Restart path (Sec. 3.3 sealing): rebuilds an issuer from the signing key
  /// a previous instance sealed (SealSigningKey). The restored issuer has the
  /// same pk_enc — clients keep their cached attestation — and its node is at
  /// genesis, ready for replay. Fails (Status) when the blob was sealed by a
  /// different enclave identity or tampered with.
  static Result<CertificateIssuer> Restore(
      chain::ChainConfig config,
      std::shared_ptr<const chain::ContractRegistry> registry,
      ByteView sealed_key, sgxsim::CostModelParams cost_model = {});

  /// Seals the enclave signing key for Restore() after a restart.
  Bytes SealSigningKey() const { return program_.SealSigningKey(enclave_); }

  /// Checkpoint resume: re-bases a freshly constructed/Restore()'d issuer
  /// (node still at genesis) onto a certified snapshot, so replay starts at
  /// the snapshot height instead of genesis. Verifies the certificate
  /// envelope against the pinned measurement and its digest binding to the
  /// tip header, then installs the state (which must hash to the header's
  /// state root — FullNode::InstallSnapshot). The certificate becomes the
  /// recursive predecessor for future issuance, which is sound because the
  /// enclave's SigGen needs only (prev_hdr, prev_cert), never pre-snapshot
  /// history. Late index attachment via AttachIndexWithBackfill is
  /// unavailable after a snapshot install (the blocks to backfill from are
  /// gone).
  Status InstallSnapshot(const chain::Block& tip, const chain::StateMap& state,
                         const BlockCertificate& tip_cert);

  chain::FullNode& Node() { return node_; }
  const chain::FullNode& Node() const { return node_; }
  const sgxsim::Enclave& EnclaveHandle() const { return enclave_; }
  sgxsim::Enclave& EnclaveHandle() { return enclave_; }
  const sgxsim::AttestationReport& Report() const { return report_; }
  const crypto::PublicKey& EnclaveKey() const { return program_.PublicKey(); }

  /// Certificate for the current tip (nullopt while the tip is genesis).
  const std::optional<BlockCertificate>& LatestCert() const { return latest_cert_; }

  /// gen_cert (Alg. 1), or Alg. 5 over the attached indexes: certifies
  /// `blk` (which must extend this CI's tip), then appends it to the local
  /// full node with the write set pre-processing derived (the enclave has
  /// verified the block, signatures included, by then). Refuses, leaving the
  /// node, LatestCert() and every LatestIndexCert() untouched, if a live
  /// index is not at its certified digest before the block, an Ecall
  /// refuses, or a live index lands off the digest the enclave certified.
  /// Fills LastTiming().
  Result<BlockCertificate> ProcessBlock(const chain::Block& blk);

  /// Batched certification: one Ecall certifies the whole span (which must
  /// extend the tip contiguously); only the last block receives a
  /// certificate. Amortizes enclave transitions and signing across the span
  /// at the cost of per-block certification latency (see bench_batching).
  /// Each block but the last is committed, fully validated, before the
  /// Ecall. Refused while an index is attached.
  Result<BlockCertificate> ProcessBlockBatch(
      const std::vector<chain::Block>& blocks);

  /// Adopts a block certified by *another* CI (decentralization: any CI
  /// running the same measured enclave can extend the chain). Fully
  /// validates the block locally, checks that `cert` is a valid certificate
  /// for it from the pinned enclave program, appends, and uses `cert` as the
  /// recursive predecessor for this CI's own future certificates. Refused
  /// while an index is attached.
  Status AcceptBlockWithCert(const chain::Block& blk,
                             const BlockCertificate& cert);

  /// Registers an authenticated index for certification by ProcessBlock*.
  /// Must be called while the chain is at genesis; for later attachment use
  /// AttachIndexWithBackfill. Throws std::invalid_argument for a null index
  /// or an id already attached.
  void AttachIndex(std::shared_ptr<CertifiedIndexHost> index);

  /// On-demand index activation (the paper's versatility claim): attaches a
  /// *fresh* index at any chain height by replaying every stored block
  /// through the enclave, producing the full recursive chain of index
  /// certificates up to the current tip. Requires the tip to already carry a
  /// block certificate (or be genesis). Returns the index certificate at the
  /// tip. Cost: one index Ecall per historical block (measured by
  /// bench_backfill). Refuses an id already attached and a host that is not
  /// at its verifier's genesis digest.
  Result<IndexCertificate> AttachIndexWithBackfill(
      std::shared_ptr<CertifiedIndexHost> index);

  std::size_t IndexCount() const { return indexes_.size(); }

  /// Augmented scheme (Alg. 4): every index's aux capture, then one Ecall
  /// *per index*, each re-verifying the block; no block certificate.
  /// Refuses like ProcessBlock, and with no index attached. A block the
  /// enclave refuses (forged root, bad signature) leaves the live indexes
  /// ahead (see CertifiedIndexHost).
  Result<std::vector<IndexCertificate>> ProcessBlockAugmented(
      const chain::Block& blk);

  /// Hierarchical scheme (Alg. 5): ProcessBlock, refused with no index
  /// attached. One gen_cert Ecall, every index's aux capture, then one
  /// lightweight Ecall per index; returns the index certificates. A refused
  /// block Ecall touches no index; a refused index Ecall leaves the live
  /// indexes ahead (see CertifiedIndexHost).
  Result<std::vector<IndexCertificate>> ProcessBlockHierarchical(
      const chain::Block& blk);

  /// Latest certificate for an attached index (by id).
  const std::optional<IndexCertificate>& LatestIndexCert(
      const std::string& id) const;

  const CertTiming& LastTiming() const { return timing_; }

 private:
  CertificateIssuer(chain::ChainConfig config,
                    std::shared_ptr<const chain::ContractRegistry> registry,
                    sgxsim::Enclave enclave, CertEnclaveProgram program);

  struct IndexSlot {
    std::shared_ptr<CertifiedIndexHost> host;
    Hash256 digest;  // certified digest as of the CI's tip
    std::optional<IndexCertificate> cert;
  };

  struct Prepared {
    StateUpdateProof proof;
    /// The block's write set: committed once the enclave has signed.
    chain::StateMap writes;
    std::uint64_t input_bytes = 0;
  };

  enum class Scheme { kAugmented, kHierarchical };

  /// The pipeline behind ProcessBlock*: Prepare (tip check, every live index
  /// at its certified digest, Prepare()), then the scheme's Ecalls into
  /// locals, then Commit once every Ecall succeeded and every live index is
  /// at the digest the enclave certified.
  Result<std::vector<IndexCertificate>> Certify(const chain::Block& blk,
                                                Scheme scheme);
  /// Outside-enclave pre-processing (Alg. 1 lines 2-3), timed. Executes
  /// without checking signatures: the enclave checks them, and nothing the
  /// host derives here is trusted before it has.
  Result<Prepared> Prepare(const chain::Block& blk);
  /// Runs one Ecall over `input_bytes` of marshalled input and books its
  /// wall and modelled time into LastTiming() and ci.stage.enclave_ns.
  template <typename F>
  auto RunEcall(std::uint64_t input_bytes, F&& fn) -> decltype(fn());
  /// Applies `blk` to each slot's live index, concurrently across the
  /// hosts, and returns their aux proofs; index_aux_ns is the wall time.
  std::vector<Bytes> CaptureAux(std::span<const IndexSlot> slots,
                                const chain::Block& blk);
  /// One index Ecall (Alg. 5 inner loop) for `slot` over `blk`, which
  /// `block_cert` certifies; the new index digest goes to `digest`.
  Result<crypto::Signature> IndexEcall(const IndexSlot& slot,
                                       const chain::Block& blk,
                                       const chain::BlockHeader& prev_hdr,
                                       const BlockCertificate& block_cert,
                                       ByteView aux, Hash256& digest);
  /// The one writer of node_, latest_cert_, block_certs_ and indexes_ for
  /// every adopted block. Appends `blk`, timed: with `verified_writes` (the
  /// write set the enclave verified) through FullNode::AppendExecuted,
  /// without with full validation. Then installs `cert` as the tip
  /// certificate (a block without one ends the per-block certificates
  /// backfill needs) and `slots`, if any. A refused append installs nothing.
  Status Commit(const chain::Block& blk, const chain::StateMap* verified_writes,
                const std::optional<BlockCertificate>& cert,
                std::vector<IndexSlot> slots = {});
  BlockCertificate AssembleCert(const Hash256& digest,
                                const crypto::Signature& sig) const;
  /// Refuses while an index is attached: the paths that adopt a block
  /// without certifying it per index would leave that index behind.
  Status CheckNoIndexAttached() const;
  Status CheckExtendsTip(const chain::Block& blk) const;
  /// The attached slot with index id `id`, or nullptr.
  const IndexSlot* FindSlot(const std::string& id) const;

  chain::ChainConfig config_;
  sgxsim::Enclave enclave_;
  CertEnclaveProgram program_;
  sgxsim::AttestationReport report_;
  chain::FullNode node_;
  std::optional<BlockCertificate> latest_cert_;
  /// Block certificates by height-1 (kept so late-attached indexes can be
  /// backfilled); empty while running in augmented-only mode.
  std::vector<BlockCertificate> block_certs_;
  std::vector<IndexSlot> indexes_;
  CertTiming timing_;
};

}  // namespace dcert::core
