#include "query/historical_index.h"

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace dcert::query {

namespace {

/// Aux proof for one block: per historical entry, the MPT pre-state path for
/// the account and the lower tree's append spine.
struct AppendStep {
  mht::MptProof mpt_proof;
  mht::MbAppendProof spine;
};

Bytes SerializeSteps(const std::vector<AppendStep>& steps) {
  Encoder enc;
  enc.U32(static_cast<std::uint32_t>(steps.size()));
  for (const AppendStep& s : steps) {
    enc.Blob(s.mpt_proof.Serialize());
    enc.Blob(s.spine.Serialize());
  }
  return enc.Take();
}

Result<std::vector<AppendStep>> DeserializeSteps(ByteView data) {
  using R = Result<std::vector<AppendStep>>;
  try {
    Decoder dec(data);
    std::uint32_t n = dec.U32();
    std::vector<AppendStep> steps;
    steps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Bytes mpt_bytes = dec.Blob();
      Bytes spine_bytes = dec.Blob();
      auto mpt = mht::MptProof::Deserialize(mpt_bytes);
      if (!mpt) return R(mpt.status());
      auto spine = mht::MbAppendProof::Deserialize(spine_bytes);
      if (!spine) return R(spine.status());
      steps.push_back({std::move(mpt.value()), std::move(spine.value())});
    }
    dec.ExpectEnd();
    return steps;
  } catch (const DecodeError& e) {
    return R::Error(std::string("historical aux proof: ") + e.what());
  }
}

/// Appends each of the block's historical entries to its account's lower
/// tree and puts the new lower root into the MPT. With `steps`, each entry's
/// pre-state proofs (the MPT path, the append spine) are captured first.
void ApplyEntries(const chain::Block& blk, mht::MptTrie& mpt,
                  std::map<Hash256, mht::MbTree>& trees,
                  std::vector<AppendStep>* steps) {
  for (const HistEntry& e : ExtractHistoricalWrites(blk)) {
    mht::MbTree& tree = trees[e.account_key];  // default-constructs when new
    if (steps != nullptr) {
      steps->push_back({mpt.Prove(e.account_key), tree.ProveAppend()});
    }
    tree.Insert(e.version, HistValueBytes(e.value_word));
    mpt.Put(e.account_key, tree.Root());
  }
}

}  // namespace

Result<Hash256> HistoricalIndexVerifier::ApplyUpdate(const Hash256& old_digest,
                                                     ByteView aux_proof,
                                                     const chain::Block& blk) const {
  using R = Result<Hash256>;
  std::vector<HistEntry> entries = ExtractHistoricalWrites(blk);
  auto steps = DeserializeSteps(aux_proof);
  if (!steps) return R(steps.status());
  if (steps.value().size() != entries.size()) {
    return R::Error("historical aux proof does not cover the block's writes");
  }

  Hash256 digest = old_digest;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const HistEntry& e = entries[i];
    const AppendStep& step = steps.value()[i];
    // Upper level: resolve the account's current lower root (or absence).
    auto lower = mht::MptTrie::VerifyGet(digest, e.account_key, step.mpt_proof);
    if (!lower) return R(lower.status().WithContext("upper MPT"));
    Hash256 lower_root =
        lower.value().has_value() ? *lower.value() : mht::MbTree::EmptyRoot();
    // Lower level: stateless append of the new version.
    Hash256 value_hash = crypto::Sha256::Digest(HistValueBytes(e.value_word));
    // HistValueBytes is the LE64 encoding, so its MbValueWord IS value_word.
    auto new_lower = mht::MbTree::ApplyAppend(lower_root, step.spine, e.version,
                                              value_hash, e.value_word);
    if (!new_lower) return R(new_lower.status().WithContext("lower MB-tree"));
    // Upper level: stateless put of the updated lower root.
    auto new_digest = mht::MptTrie::ApplyPut(digest, e.account_key, step.mpt_proof,
                                             new_lower.value());
    if (!new_digest) return R(new_digest.status().WithContext("upper MPT put"));
    digest = new_digest.value();
  }
  return digest;
}

HistoricalIndex::HistoricalIndex(std::string id) : id_(std::move(id)) {}

void HistoricalIndex::ApplyBlock(const chain::Block& blk) {
  ApplyEntries(blk, mpt_, trees_, nullptr);
}

Bytes HistoricalIndex::ApplyBlockCapturingAux(const chain::Block& blk) {
  std::vector<AppendStep> steps;
  ApplyEntries(blk, mpt_, trees_, &steps);
  return SerializeSteps(steps);
}

Bytes HistoricalIndex::SerializeContent() const {
  Encoder enc;
  enc.U32(1);  // content format version
  enc.U64(trees_.size());
  for (const auto& [key, tree] : trees_) {  // std::map: key order, canonical
    enc.HashField(key);
    const std::vector<mht::MbEntry> entries = tree.Entries();
    enc.U64(entries.size());
    for (const mht::MbEntry& e : entries) {
      enc.U64(e.key);
      enc.Blob(e.value);
    }
  }
  return enc.Take();
}

Status HistoricalIndex::RestoreContent(ByteView data) {
  if (!trees_.empty() || mpt_.Root() != mht::MptTrie::EmptyRoot()) {
    return Status::Error("historical index restore requires a fresh index");
  }
  try {
    Decoder dec(data);
    if (const std::uint32_t version = dec.U32(); version != 1) {
      return Status::Error("historical index content: unknown version " +
                           std::to_string(version));
    }
    const std::uint64_t accounts = dec.U64();
    for (std::uint64_t a = 0; a < accounts; ++a) {
      const Hash256 key = dec.HashField();
      const std::uint64_t count = dec.U64();
      std::vector<mht::MbEntry> entries;
      entries.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        mht::MbEntry e;
        e.key = dec.U64();
        e.value = dec.Blob();
        entries.push_back(std::move(e));
      }
      mht::MbTree tree;
      tree.InsertBatch(std::move(entries));
      mpt_.Put(key, tree.Root());
      trees_.emplace(key, std::move(tree));
    }
    dec.ExpectEnd();
  } catch (const DecodeError& e) {
    return Status::Error(std::string("historical index content: ") + e.what());
  } catch (const std::invalid_argument& e) {
    // Duplicate version keys in tampered content surface here.
    return Status::Error(std::string("historical index content: ") + e.what());
  }
  return Status::Ok();
}

HistoricalQueryProof HistoricalIndex::Query(std::uint64_t account_word,
                                            std::uint64_t from_height,
                                            std::uint64_t to_height) const {
  HistoricalQueryProof proof;
  Hash256 key = HistAccountKey(account_word);
  proof.account_proof = mpt_.Prove(key);
  auto it = trees_.find(key);
  proof.account_present = it != trees_.end();
  if (proof.account_present) {
    proof.lower_root = it->second.Root();
    auto [lo, hi] = VersionWindow(from_height, to_height);
    proof.range_proof = it->second.RangeQueryWithProof(lo, hi);
  }
  return proof;
}

Result<std::vector<HistoricalVersion>> HistoricalIndex::VerifyQuery(
    const Hash256& certified_digest, std::uint64_t account_word,
    std::uint64_t from_height, std::uint64_t to_height,
    const HistoricalQueryProof& proof) {
  using R = Result<std::vector<HistoricalVersion>>;
  Hash256 key = HistAccountKey(account_word);
  auto lower = mht::MptTrie::VerifyGet(certified_digest, key, proof.account_proof);
  if (!lower) return R(lower.status().WithContext("account proof"));
  if (!lower.value().has_value()) {
    // Provably unknown account: empty result.
    if (proof.account_present) {
      return R::Error("proof claims a present account the MPT disproves");
    }
    return std::vector<HistoricalVersion>{};
  }
  if (!proof.account_present || proof.lower_root != *lower.value()) {
    return R::Error("lower-tree root does not match the certified MPT value");
  }
  auto [lo, hi] = VersionWindow(from_height, to_height);
  auto entries = mht::MbTree::VerifyRange(proof.lower_root, lo, hi,
                                          proof.range_proof);
  if (!entries) return R(entries.status().WithContext("version range"));
  std::vector<HistoricalVersion> versions;
  versions.reserve(entries.value().size());
  for (const mht::MbEntry& e : entries.value()) {
    HistoricalVersion v;
    v.version = e.key;
    v.block_height = VersionHeight(e.key);
    v.value = HistValueWord(e.value);
    versions.push_back(v);
  }
  return versions;
}

HistoricalQueryProof HistoricalIndex::AggregateQuery(std::uint64_t account_word,
                                                     std::uint64_t from_height,
                                                     std::uint64_t to_height) const {
  HistoricalQueryProof proof;
  Hash256 key = HistAccountKey(account_word);
  proof.account_proof = mpt_.Prove(key);
  auto it = trees_.find(key);
  proof.account_present = it != trees_.end();
  if (proof.account_present) {
    proof.lower_root = it->second.Root();
    auto [lo, hi] = VersionWindow(from_height, to_height);
    proof.range_proof = it->second.AggregateQueryWithProof(lo, hi);
  }
  return proof;
}

Result<mht::MbAggregate> HistoricalIndex::VerifyAggregateQuery(
    const Hash256& certified_digest, std::uint64_t account_word,
    std::uint64_t from_height, std::uint64_t to_height,
    const HistoricalQueryProof& proof) {
  using R = Result<mht::MbAggregate>;
  Hash256 key = HistAccountKey(account_word);
  auto lower = mht::MptTrie::VerifyGet(certified_digest, key, proof.account_proof);
  if (!lower) return R(lower.status().WithContext("account proof"));
  if (!lower.value().has_value()) {
    if (proof.account_present) {
      return R::Error("proof claims a present account the MPT disproves");
    }
    return mht::MbAggregate{};
  }
  if (!proof.account_present || proof.lower_root != *lower.value()) {
    return R::Error("lower-tree root does not match the certified MPT value");
  }
  auto [lo, hi] = VersionWindow(from_height, to_height);
  auto agg = mht::MbTree::VerifyAggregate(proof.lower_root, lo, hi,
                                          proof.range_proof);
  if (!agg) return R(agg.status().WithContext("aggregate window"));
  return agg.value();
}

Bytes HistoricalQueryProof::Serialize() const {
  Encoder enc;
  enc.Blob(account_proof.Serialize());
  enc.Bool(account_present);
  if (account_present) {
    enc.HashField(lower_root);
    enc.Blob(range_proof.Serialize());
  }
  return enc.Take();
}

Result<HistoricalQueryProof> HistoricalQueryProof::Deserialize(ByteView data) {
  using R = Result<HistoricalQueryProof>;
  try {
    Decoder dec(data);
    HistoricalQueryProof proof;
    Bytes account_bytes = dec.Blob();
    auto account = mht::MptProof::Deserialize(account_bytes);
    if (!account) return R(account.status());
    proof.account_proof = std::move(account.value());
    proof.account_present = dec.Bool();
    if (proof.account_present) {
      proof.lower_root = dec.HashField();
      Bytes range_bytes = dec.Blob();
      auto range = mht::MbRangeProof::Deserialize(range_bytes);
      if (!range) return R(range.status());
      proof.range_proof = std::move(range.value());
    }
    dec.ExpectEnd();
    return proof;
  } catch (const DecodeError& e) {
    return R::Error(std::string("HistoricalQueryProof: ") + e.what());
  }
}

}  // namespace dcert::query
