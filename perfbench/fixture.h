// Seeded inputs and correctness oracles shared by the workloads: the mined
// KVStore chain, the certificate issuer that certifies it, ground truth for
// historical queries, the certificate-chain digest, client-side validation,
// and the tampered-reply negative control.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "chain/block.h"
#include "chain/executor.h"
#include "chain/node.h"
#include "crypto/sha256.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "mht/mbtree.h"
#include "obs/metrics.h"
#include "query/historical_index.h"
#include "svc/protocol.h"
#include "svc/sp_client.h"
#include "workloads/workloads.h"

namespace perfbench {

inline constexpr const char kIndexId[] = "historical";
/// Pool workers of every SpServer the benchmark starts: one keeps the load
/// thread, the servers and their transport threads within 4 cores.
inline constexpr std::size_t kSpWorkers = 1;

/// A pre-mined chain; only the seed and the sizes determine it.
struct MinedChain {
  dcert::chain::ChainConfig config;
  std::shared_ptr<const dcert::chain::ContractRegistry> registry;
  std::vector<dcert::chain::Block> blocks;
};

/// Mines a seeded KVStore chain of `txs` transactions per block over
/// `kv_keys` keys, one block at a time.
class ChainMiner {
 public:
  ChainMiner(std::uint64_t seed, std::size_t txs, std::uint64_t kv_keys);
  ~ChainMiner();
  ChainMiner(const ChainMiner&) = delete;
  ChainMiner& operator=(const ChainMiner&) = delete;

  /// Mines the next block and appends it to chain().blocks.
  void MineNext();
  const MinedChain& chain() const { return chain_; }

 private:
  const std::size_t txs_;
  MinedChain chain_;
  std::unique_ptr<dcert::chain::FullNode> node_;
  dcert::workloads::AccountPool pool_;
  std::unique_ptr<dcert::workloads::WorkloadGenerator> gen_;
};

/// The first `blocks` blocks of ChainMiner's chain.
MinedChain MineChain(std::uint64_t seed, std::size_t blocks, std::size_t txs,
                     std::uint64_t kv_keys);

/// A certificate issuer with the historical index attached, certifying with
/// the hierarchical scheme from genesis.
class Certifier {
 public:
  explicit Certifier(const MinedChain& chain);

  /// ProcessBlockHierarchical under a "dcert.certify" span; when tracing,
  /// the issuer's stage times and ecall counter deltas become samples.
  /// Returns the announcement for the SP.
  dcert::Result<dcert::svc::AnnounceRequest> Certify(
      const dcert::chain::Block& blk, std::uint64_t id);
  const dcert::core::CertTiming& LastTiming() const { return ci_.LastTiming(); }

 private:
  dcert::core::CertificateIssuer ci_;
  std::shared_ptr<dcert::query::HistoricalIndex> index_;
  std::shared_ptr<dcert::obs::Counter> ecalls_;
  std::shared_ptr<dcert::obs::Counter> ecall_bytes_;
};

/// Ground truth for historical queries, built from the blocks' KVStore
/// writes (query::ExtractHistoricalWrites) without the index under test.
class Truth {
 public:
  void Add(const dcert::chain::Block& blk);
  std::vector<dcert::query::HistoricalVersion> Historical(
      std::uint64_t account, std::uint64_t from, std::uint64_t to) const;
  dcert::mht::MbAggregate Aggregate(std::uint64_t account, std::uint64_t from,
                                    std::uint64_t to) const;
  /// Accounts with at least one version, ascending.
  std::vector<std::uint64_t> Accounts() const;

 private:
  std::map<std::uint64_t, std::vector<dcert::query::HistoricalVersion>>
      by_account_;
};

/// SHA-256 over the certificates of a chain, in block order.
class CertChainDigest {
 public:
  void Add(const dcert::svc::AnnounceRequest& ann);
  std::string Hex();

 private:
  dcert::crypto::Sha256 h_;
};

/// Validates a block and its index certificate like a superlight client
/// (span "dcert.superlight.validate" with id `id`). Returns "" or the reason.
std::string ValidateCertified(dcert::core::SuperlightClient& light,
                              const dcert::chain::BlockHeader& hdr,
                              const dcert::core::BlockCertificate& block_cert,
                              const dcert::Hash256& index_digest,
                              const dcert::core::IndexCertificate& index_cert,
                              std::uint64_t id);

/// Fetches an SP's tip, validates it with a fresh SuperlightClient, and
/// stores the certified index digest and tip height. Returns "" or the
/// reason.
std::string FetchCertifiedTip(dcert::svc::SpClient& client,
                              dcert::Hash256* digest, std::uint64_t* height);

/// Verifies one reply against a certified index digest (span
/// "query.verify" with the request's id) and compares it with the truth.
/// Returns "" or the reason.
std::string CheckReply(const Truth& truth, const dcert::Hash256& digest,
                       const dcert::svc::QueryRequest& q,
                       const dcert::query::HistoricalQueryProof& proof,
                       std::uint64_t id);

/// Negative control on a real reply `proof` that verifies: a flipped bit in
/// its claimed lower-tree root and a consistently re-encoded forged version
/// value must each be rejected, and `trials` random single-byte corruptions
/// must never verify to a different answer. Corruptions that verify to the
/// same answer (bytes of redundant fields the verifier recomputes) are
/// counted in *noncanonical. Returns "" or the reason.
std::string TamperControl(const dcert::Hash256& digest,
                          const dcert::svc::QueryRequest& q,
                          const dcert::query::HistoricalQueryProof& proof,
                          std::uint64_t seed, int trials,
                          std::uint64_t* noncanonical);

/// End-of-run check of a serving SP: validates its tip, runs `queries`
/// seeded historical and aggregate queries over accounts in `truth`, with
/// windows inside [min_height, tip] (every reply verified and compared with
/// the truth), then runs TamperControl on the first, whole-window reply.
/// Records failures and the control's outcome in `r`.
void SpotCheck(Report& r, dcert::svc::SpClient& client, const Truth& truth,
               std::uint64_t seed, int queries, std::uint64_t min_height = 1);

}  // namespace perfbench
