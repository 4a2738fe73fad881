// Crash-recoverable Certificate Issuer: a CertificateIssuer wrapped with
// durable state — a block log, a certificate log (both RecordLogs), and the
// sealed signing key — plus the recovery path that rebuilds a running issuer
// from whatever a crash left behind.
//
// Commit order (the durability invariant everything else follows from):
//
//   block record durable  ->  certificate record durable  ->  announced
//
// A certificate is never announced to clients before it is in the cert log,
// and never logged before its block is in the block log. A crash between any
// two steps leaves the logs at most one record apart, which Open()
// reconciles:
//
//   * cert log ahead of block log (torn block tail): the dangling
//     certificates are truncated away. They re-issue byte-identically when
//     the block is re-certified — signing is deterministic — so even a
//     client that saw the announcement observes no equivocation.
//   * block log ahead of cert log (crash between the appends): the gap
//     blocks are re-certified through the restored enclave key and appended;
//     they were provably never announced (announce follows the cert append),
//     so announcing the re-issued certs is the first time clients see them.
//
// Recovery then replays the reconciled logs through AcceptBlockWithCert —
// full local re-validation, exactly as if another CI had issued the stored
// certificates — and resumes issuance with the same pk_enc (the sealed key),
// so clients keep their cached attestation across the restart.
//
// Attached indexes are NOT restored (replay bypasses index certification);
// rebuild service-side indexes from the stores instead (SpServer::Restore).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chain/block_store.h"
#include "common/status.h"
#include "dcert/cert_store.h"
#include "dcert/issuer.h"

namespace dcert::core {

/// Called once per certified block, strictly after its certificate is
/// durable in the cert log: the announce step of the commit order. An error
/// aborts the issuing call.
using AnnounceFn =
    std::function<Status(const chain::Block&, const BlockCertificate&)>;

/// Checkpoint bootstrap hook, invoked on resume after the signing key is
/// restored and the logs are reconciled, before replay. Given the restored
/// issuer (node still at genesis) and the block log, it may install a
/// certified snapshot (CertificateIssuer::InstallSnapshot) and return its
/// height; returning 0 means "no snapshot, replay from genesis". Open()
/// cross-checks the snapshot against the retained log suffix (stored block
/// and certificate at the snapshot height must match) and replays only the
/// tail above it. The hook must never return a height >= the block count —
/// a checkpoint beyond the durable chain cannot be reconciled.
using BootstrapFn = std::function<Result<std::uint64_t>(
    CertificateIssuer& issuer, const chain::BlockStore& blocks)>;

struct DurableIssuerOptions {
  std::string block_log_path;
  std::string cert_log_path;
  std::string sealed_key_path;
  /// fsync both logs on every append (a power loss then cannot lose an
  /// acknowledged record, only tear the in-flight one). Off by default for
  /// throughput experiments; the crash soak exercises both settings.
  bool fsync_on_append = false;
  sgxsim::CostModelParams cost_model = {};
  /// Key-derivation seed for a FRESH issuer; ignored when resuming (the
  /// sealed key wins — that is the point of sealing).
  std::string key_seed = "dcert-ci-key";
  /// Announce sink, also invoked for gap blocks re-certified during
  /// recovery (provably never announced before the crash).
  AnnounceFn announce;
  /// Segment rotation for both logs: roll to a new sealed segment every
  /// `segment_records` records (0 = legacy single-file logs). Required for
  /// CompactBelow — only whole sealed segments are ever dropped.
  std::uint64_t segment_records = 0;
  /// Checkpoint bootstrap hook (see BootstrapFn). When unset and the block
  /// log was compacted, Open() fails: pre-checkpoint history is gone and
  /// only a checkpoint can stand in for it.
  BootstrapFn bootstrap;
};

/// What Open() found and did. All counters are zero on a fresh start.
struct RecoveryReport {
  bool resumed = false;         // opened over pre-existing durable state
  bool block_log_torn = false;  // block log had a torn/corrupt tail
  bool cert_log_torn = false;   // cert log had a torn/corrupt tail
  std::uint64_t certs_truncated = 0;    // cert-log-ahead reconciliation
  std::uint64_t blocks_recertified = 0; // block-log-ahead gap re-certification
  std::uint64_t blocks_replayed = 0;    // stored blocks re-validated via replay
  std::uint64_t bootstrap_height = 0;   // checkpoint height replay resumed from
                                        // (0 = replayed from genesis)
};

class DurableCertificateIssuer {
 public:
  DurableCertificateIssuer(DurableCertificateIssuer&&) noexcept = default;
  DurableCertificateIssuer(const DurableCertificateIssuer&) = delete;
  DurableCertificateIssuer& operator=(const DurableCertificateIssuer&) = delete;

  /// Opens (or creates) the durable state and returns a ready-to-issue
  /// issuer. Fresh start: derives the signing key from options.key_seed,
  /// seals it to sealed_key_path (durably, before any block is logged), and
  /// logs the genesis block. Resume: unseals the key, reconciles the logs
  /// (see file comment), replays, and re-certifies any gap.
  static Result<DurableCertificateIssuer> Open(
      chain::ChainConfig config,
      std::shared_ptr<const chain::ContractRegistry> registry,
      DurableIssuerOptions options);

  /// Certifies `blk` under the commit order: block append -> certificate
  /// construction -> cert append -> announce. On error the in-memory node
  /// and the logs may disagree by one block; reopening reconciles.
  Status CertifyBlock(const chain::Block& blk);

  /// Drops log history strictly below checkpoint height `height`: block
  /// records below `height` and certificate records below `height - 1`, so
  /// the checkpointed block and its certificate stay retained as the
  /// recovery anchors. Whole-segment granularity (requires segment_records);
  /// a no-op floor compacts nothing. Only call with a height covered by a
  /// durable checkpoint — recovery below the new base needs one.
  Status CompactBelow(std::uint64_t height);

  CertificateIssuer& Issuer() { return issuer_; }
  const CertificateIssuer& Issuer() const { return issuer_; }
  const chain::BlockStore& Blocks() const { return blocks_; }
  const CertificateStore& Certs() const { return certs_; }
  const RecoveryReport& Recovery() const { return recovery_; }

 private:
  DurableCertificateIssuer(CertificateIssuer issuer, chain::BlockStore blocks,
                           CertificateStore certs, AnnounceFn announce,
                           RecoveryReport recovery);

  CertificateIssuer issuer_;
  chain::BlockStore blocks_;
  CertificateStore certs_;
  AnnounceFn announce_;
  RecoveryReport recovery_;
};

}  // namespace dcert::core
