#include "chain/state.h"

#include "common/serialize.h"
#include "crypto/sha256.h"
#include "vm/rwset_storage.h"

namespace dcert::chain {

StateKey SlotKey(std::uint64_t contract_id, std::uint64_t slot) {
  Encoder enc;
  enc.Str("slot");
  enc.U64(contract_id);
  enc.U64(slot);
  return crypto::Sha256::Digest(enc.bytes());
}

StateKey NonceKey(const crypto::PublicKey& sender) {
  Encoder enc;
  enc.Str("nonce");
  enc.Raw(sender.Serialize());
  return crypto::Sha256::Digest(enc.bytes());
}

Hash256 StateValueHash(std::uint64_t value) {
  if (value == 0) return Hash256();
  Encoder enc;
  enc.U64(value);
  return crypto::Sha256::Digest(enc.bytes());
}

std::uint64_t StateDB::Load(const StateKey& key) const {
  auto it = values_.find(key);
  return it == values_.end() ? 0 : it->second;
}

void StateDB::Store(const StateKey& key, std::uint64_t value) {
  if (value == 0) {
    values_.erase(key);
  } else {
    values_[key] = value;
  }
  smt_.Update(key, StateValueHash(value));
}

void AppendKeys(const StateMap& map, std::vector<StateKey>& out) {
  for (const auto& [key, value] : map) out.push_back(key);
}

void StateDB::ApplyWrites(const StateMap& writes, StateMap* prior) {
  std::map<Hash256, Hash256> leaves;
  for (const auto& [key, value] : writes) {
    if (prior != nullptr) prior->emplace_hint(prior->end(), key, Load(key));
    if (value == 0) {
      values_.erase(key);
    } else {
      values_[key] = value;
    }
    leaves[key] = StateValueHash(value);
  }
  // One bulk SMT pass: every changed node is hashed once, after all writes.
  smt_.UpdateBatch(leaves);
}

Hash256 PredictRootAfterWrites(const StateDB& db, const StateMap& writes) {
  if (writes.empty()) return db.Root();
  std::vector<StateKey> touched;
  touched.reserve(writes.size());
  std::map<Hash256, Hash256> new_leaves;
  for (const auto& [key, value] : writes) {
    touched.push_back(key);
    new_leaves[key] = StateValueHash(value);
  }
  return mht::SparseMerkleTree::ComputeRootFromProof(db.ProveKeys(touched),
                                                     new_leaves);
}

std::uint64_t ReadSetReader::Load(const StateKey& key) const {
  auto it = read_set_->find(key);
  if (it == read_set_->end()) {
    // Reuse the VM's sentinel exception type for "proof incomplete".
    throw vm::ReadOutsideReadSet(Hash256Hasher{}(key));
  }
  return it->second;
}

}  // namespace dcert::chain
