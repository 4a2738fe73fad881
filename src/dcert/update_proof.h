// The update proof pi_i the CI prepares outside the enclave (Alg. 1 line 3):
// the read set {r}_i with its values, pre-state values for written-only keys
// (the "neighboring nodes related to {w}_i"), and one SMT multiproof covering
// all touched keys. The enclave uses it to (a) verify the read set against
// the previous state root and (b) recompute the new state root after its own
// trusted replay (Alg. 2 lines 17, 22-23).
#pragma once

#include "chain/state.h"
#include "common/bytes.h"
#include "common/status.h"
#include "mht/smt.h"

namespace dcert::core {

struct StateUpdateProof {
  /// {r}_i: key -> pre-state value observed by the block's execution.
  chain::StateMap read_set;
  /// Pre-state values of keys the block writes but never reads.
  chain::StateMap prior_write_values;
  /// Multiproof over keys(read_set) ∪ keys(prior_write_values) ∪ write keys.
  mht::SmtMultiProof smt_proof;

  Bytes Serialize() const;
  static Result<StateUpdateProof> Deserialize(ByteView data);
  /// Serialize().size(), counted without serializing.
  std::size_t ByteSize() const;

  /// All covered pre-state leaves (read set ∪ prior write values), hashed as
  /// SMT leaf values — the input to the old-root verification.
  std::map<Hash256, Hash256> OldLeaves() const;
};

/// Builds the update proof from an execution's read/write sets against the
/// pre-state `db` (which must still be at the previous block's state).
StateUpdateProof BuildStateUpdateProof(const chain::StateMap& reads,
                                       const chain::StateMap& writes,
                                       const chain::StateDB& db);

}  // namespace dcert::core
