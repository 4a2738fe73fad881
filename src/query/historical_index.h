// DCert's two-level historical index (paper Fig. 5, left): a Merkle Patricia
// Trie over account keys whose values are the roots of per-account Merkle
// B-trees of time-stamped versions. Provides:
//  * the SP-side live index with authenticated window queries, and
//  * the trusted update verifier the enclave runs to certify index digests.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/block.h"
#include "common/bytes.h"
#include "common/status.h"
#include "dcert/index_verifier.h"
#include "dcert/issuer.h"
#include "mht/mbtree.h"
#include "mht/mpt.h"
#include "query/extraction.h"

namespace dcert::query {

/// Proof for one historical window query: the MPT path for the account (also
/// proves unknown accounts) plus the lower-tree range proof.
struct HistoricalQueryProof {
  mht::MptProof account_proof;
  bool account_present = false;
  Hash256 lower_root;  // claimed lower-tree root (bound by account_proof)
  mht::MbRangeProof range_proof;

  Bytes Serialize() const;
  static Result<HistoricalQueryProof> Deserialize(ByteView data);
  std::size_t ByteSize() const { return Serialize().size(); }
};

/// One verified version.
struct HistoricalVersion {
  std::uint64_t version = 0;
  std::uint64_t block_height = 0;
  std::uint64_t value = 0;

  bool operator==(const HistoricalVersion&) const = default;
};

/// Trusted update verifier (runs inside the enclave).
class HistoricalIndexVerifier final : public core::IndexUpdateVerifier {
 public:
  std::string TypeName() const override { return "historical-mpt-mbtree"; }
  Hash256 GenesisDigest() const override { return mht::MptTrie::EmptyRoot(); }
  Result<Hash256> ApplyUpdate(const Hash256& old_digest, ByteView aux_proof,
                              const chain::Block& blk) const override;
};

/// SP/CI-side live index. Also the CertifiedIndexHost the CI drives.
class HistoricalIndex final : public core::CertifiedIndexHost {
 public:
  explicit HistoricalIndex(std::string id = "historical");

  // CertifiedIndexHost:
  std::string Id() const override { return id_; }
  const core::IndexUpdateVerifier& Verifier() const override { return verifier_; }
  Hash256 CurrentDigest() const override { return mpt_.Root(); }
  Bytes ApplyBlockCapturingAux(const chain::Block& blk) override;
  /// ApplyBlockCapturingAux without the aux proofs: for holders that only
  /// serve or snapshot the index (an SP, a checkpoint shadow). Reaches the
  /// same digest and content through the same per-entry loop.
  void ApplyBlock(const chain::Block& blk);

  /// Authenticated query: versions of `account_word` written in blocks
  /// [from_height, to_height].
  HistoricalQueryProof Query(std::uint64_t account_word,
                             std::uint64_t from_height,
                             std::uint64_t to_height) const;

  /// Client-side verification against a *certified* index digest.
  static Result<std::vector<HistoricalVersion>> VerifyQuery(
      const Hash256& certified_digest, std::uint64_t account_word,
      std::uint64_t from_height, std::uint64_t to_height,
      const HistoricalQueryProof& proof);

  /// Authenticated aggregation over the account's versions in the window:
  /// (count, sum of values) with an O(log n) proof — no values shipped for
  /// fully covered subtrees (the paper's "complex queries such as
  /// aggregations" via the aggregate-annotated MB-tree).
  HistoricalQueryProof AggregateQuery(std::uint64_t account_word,
                                      std::uint64_t from_height,
                                      std::uint64_t to_height) const;

  static Result<mht::MbAggregate> VerifyAggregateQuery(
      const Hash256& certified_digest, std::uint64_t account_word,
      std::uint64_t from_height, std::uint64_t to_height,
      const HistoricalQueryProof& proof);

  std::size_t AccountCount() const { return trees_.size(); }

  /// Serializes the index's raw content — per account, the key-ordered
  /// version entries — for a checkpoint. Deliberately *content*, not tree
  /// structure: RestoreContent re-inserts through the same deterministic
  /// code path, so the restored digest either reproduces CurrentDigest()
  /// exactly or (if the bytes were tampered with) fails the caller's digest
  /// check against the certified value.
  Bytes SerializeContent() const;

  /// Rebuilds a *fresh* index (fails if anything was already applied) from
  /// SerializeContent bytes. Bulk-inserts per account (multi-buffer hashing),
  /// so restoring is far cheaper than replaying the blocks that produced the
  /// content. Callers must compare CurrentDigest() against a certified
  /// digest afterwards — this function checks shape, not authenticity.
  Status RestoreContent(ByteView data);

 private:
  std::string id_;
  HistoricalIndexVerifier verifier_;
  mht::MptTrie mpt_;
  std::map<Hash256, mht::MbTree> trees_;
};

}  // namespace dcert::query
