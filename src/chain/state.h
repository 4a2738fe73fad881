// Global chain state: a flat 64-bit-value key-value space committed by a
// Sparse Merkle Tree (H_state). Keys are digests scoping contract storage
// slots and account nonces; values are words (0 = unset = absent from the
// tree), matching the VM's storage model.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>

#include "common/bytes.h"
#include "crypto/signature.h"
#include "mht/smt.h"

namespace dcert::chain {

using StateKey = Hash256;
/// Read/write sets: key -> word value (0 = unset).
using StateMap = std::map<StateKey, std::uint64_t>;

/// Global key of a contract storage slot.
StateKey SlotKey(std::uint64_t contract_id, std::uint64_t slot);
/// Global key of a sender account's transaction nonce.
StateKey NonceKey(const crypto::PublicKey& sender);

/// SMT leaf value hash for a state word; zero words map to the zero hash
/// (absent leaf), so "unset" and "zero" are the same state.
Hash256 StateValueHash(std::uint64_t value);

/// Appends the keys of `map` to `out` (in map order).
void AppendKeys(const StateMap& map, std::vector<StateKey>& out);

/// Read-only view of some state (full StateDB, or a verified read set).
class StateReader {
 public:
  virtual ~StateReader() = default;
  /// Value of `key` (0 when unset). Enclave-side implementations throw
  /// vm::ReadOutsideReadSet when the key is not covered.
  virtual std::uint64_t Load(const StateKey& key) const = 0;
};

/// Full-node state: the value map plus its SMT commitment.
class StateDB final : public StateReader {
 public:
  std::uint64_t Load(const StateKey& key) const override;
  void Store(const StateKey& key, std::uint64_t value);
  /// Applies `writes` in one bulk SMT pass. With `prior`, also records each
  /// written key's value before the call (0 when unset): applying `prior`
  /// afterwards restores the values, the size and the root exactly.
  void ApplyWrites(const StateMap& writes, StateMap* prior = nullptr);

  /// Every set (non-zero) key -> value, in key order: the canonical snapshot
  /// a checkpoint serializes. Rebuilding a StateDB via ApplyWrites(Snapshot())
  /// reproduces Root() exactly.
  StateMap Snapshot() const { return StateMap(values_.begin(), values_.end()); }

  Hash256 Root() const { return smt_.Root(); }
  std::size_t Size() const { return values_.size(); }
  mht::SmtMultiProof ProveKeys(const std::vector<StateKey>& keys) const {
    return smt_.ProveKeys(keys);
  }

 private:
  std::unordered_map<StateKey, std::uint64_t, Hash256Hasher> values_;
  mht::SparseMerkleTree smt_;
};

/// Stateless prediction of the SMT root after applying `writes` to `db`
/// (proof + recompute, without touching `db`). Exactly what the enclave does
/// with an update proof; for callers that must not change `db` (a miner
/// deriving its header's state root). A full node committing a block applies
/// the writes and compares instead, which costs one tree pass, not two.
Hash256 PredictRootAfterWrites(const StateDB& db, const StateMap& writes);

/// StateReader over a verified read set (the enclave's view during replay).
class ReadSetReader final : public StateReader {
 public:
  explicit ReadSetReader(const StateMap& read_set) : read_set_(&read_set) {}
  std::uint64_t Load(const StateKey& key) const override;

 private:
  const StateMap* read_set_;
};

}  // namespace dcert::chain
