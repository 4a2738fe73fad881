#include "dcert/update_proof.h"

#include "common/serialize.h"

namespace dcert::core {

namespace {

void EncodeStateMap(Encoder& enc, const chain::StateMap& map) {
  enc.U32(static_cast<std::uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    enc.HashField(key);
    enc.U64(value);
  }
}

/// Accepts only EncodeStateMap's output: keys strictly ascending.
chain::StateMap DecodeStateMap(Decoder& dec) {
  chain::StateMap map;
  std::uint32_t n = dec.U32();
  for (std::uint32_t i = 0; i < n; ++i) {
    Hash256 key = dec.HashField();
    std::uint64_t value = dec.U64();
    if (!map.empty() && !(map.rbegin()->first < key)) {
      throw DecodeError("state map keys not ascending");
    }
    map.emplace_hint(map.end(), key, value);
  }
  return map;
}

}  // namespace

Bytes StateUpdateProof::Serialize() const {
  Encoder enc;
  EncodeStateMap(enc, read_set);
  EncodeStateMap(enc, prior_write_values);
  enc.Blob(smt_proof.Serialize());
  return enc.Take();
}

Result<StateUpdateProof> StateUpdateProof::Deserialize(ByteView data) {
  using R = Result<StateUpdateProof>;
  try {
    Decoder dec(data);
    StateUpdateProof proof;
    proof.read_set = DecodeStateMap(dec);
    proof.prior_write_values = DecodeStateMap(dec);
    Bytes smt = dec.Blob();
    dec.ExpectEnd();
    auto parsed = mht::SmtMultiProof::Deserialize(smt);
    if (!parsed) return R(parsed.status());
    proof.smt_proof = std::move(parsed.value());
    return proof;
  } catch (const DecodeError& e) {
    return R::Error(std::string("StateUpdateProof: ") + e.what());
  }
}

std::size_t StateUpdateProof::ByteSize() const {
  // Two u32 map counts, 40 bytes per entry, and the SMT proof as a blob.
  return 4 + 4 + (read_set.size() + prior_write_values.size()) * (32 + 8) +
         4 + smt_proof.ByteSize();
}

std::map<Hash256, Hash256> StateUpdateProof::OldLeaves() const {
  std::map<Hash256, Hash256> leaves;
  for (const auto& [key, value] : read_set) {
    leaves[key] = chain::StateValueHash(value);
  }
  for (const auto& [key, value] : prior_write_values) {
    leaves[key] = chain::StateValueHash(value);
  }
  return leaves;
}

StateUpdateProof BuildStateUpdateProof(const chain::StateMap& reads,
                                       const chain::StateMap& writes,
                                       const chain::StateDB& db) {
  StateUpdateProof proof;
  proof.read_set = reads;
  std::vector<chain::StateKey> touched;
  touched.reserve(reads.size() + writes.size());
  chain::AppendKeys(reads, touched);
  chain::AppendKeys(writes, touched);
  for (const auto& [key, value] : writes) {
    if (reads.count(key) == 0) {
      proof.prior_write_values.emplace(key, db.Load(key));
    }
  }
  proof.smt_proof = db.ProveKeys(touched);
  return proof;
}

}  // namespace dcert::core
