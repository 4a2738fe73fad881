// Deterministic block execution — the shared engine behind the miner, the
// full node's validation, the CI's read/write-set pre-processing (Alg. 1
// line 2), and the enclave's trusted replay (Alg. 2 lines 18-21). One code
// path guarantees the untrusted and trusted executions agree bit for bit.
//
// Signature checking is a separate preamble (VerifyTxSignatures) that every
// validating caller runs through ExecuteBlockTxs: the enclave's replay, full
// node validation, the miner, and the naive in-enclave baseline. Only the
// CI's untrusted pre-processing skips it (ExecuteBlockTxsUnchecked): its
// read/write sets are checked by the enclave, which verifies the signatures.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/state.h"
#include "common/status.h"
#include "vm/vm.h"

namespace dcert::chain {

/// The installed contracts. Fixed at genesis (the paper pre-deploys its 500
/// Blockbench contracts); the registry digest is pinned inside the enclave's
/// configuration so trusted replay runs exactly the published code.
class ContractRegistry {
 public:
  void Install(std::uint64_t contract_id, vm::Program program);
  const vm::Program* Find(std::uint64_t contract_id) const;
  std::size_t Size() const { return programs_.size(); }

  /// Commitment over (id, code-hash) pairs in id order.
  Hash256 Digest() const;

 private:
  std::map<std::uint64_t, vm::Program> programs_;
};

struct TxReceipt {
  bool success = false;
  std::string error;       // empty on success
  std::uint64_t steps = 0; // VM instructions executed
};

struct BlockExecutionResult {
  /// Pre-state values observed by the block ({r}_i; key -> value, 0 = unset).
  StateMap reads;
  /// Final values written by the block ({w}_i).
  StateMap writes;
  std::vector<TxReceipt> receipts;
};

/// Checks every transaction's signature: chunks of `txs` go through
/// crypto::VerifyBatch, spread across common::ThreadPool::Shared(). The
/// verdict is exactly that of per-tx Transaction::VerifySignature, and a
/// failure names the first bad transaction ("tx <i>: ...").
Status VerifyTxSignatures(const std::vector<Transaction>& txs);

/// Executes `txs` in order on top of `base`. Transaction rules:
///  * an invalid signature invalidates the whole block (Alg. 2 line 19);
///    all signatures are checked up front by VerifyTxSignatures;
///  * a nonce mismatch invalidates the whole block (miners order correctly);
///  * an unknown contract or VM failure reverts that transaction's storage
///    writes but still consumes the sender's nonce (Ethereum-style).
/// Reads outside a ReadSetReader's coverage propagate as an error status.
Result<BlockExecutionResult> ExecuteBlockTxs(const std::vector<Transaction>& txs,
                                             const ContractRegistry& registry,
                                             const StateReader& base,
                                             std::uint64_t step_limit = 1'000'000);

/// ExecuteBlockTxs without the signature preamble. Only for untrusted pre-
/// processing whose result a trusted verifier re-derives with signatures
/// checked (the CI's Prepare); never the basis of a validity decision.
Result<BlockExecutionResult> ExecuteBlockTxsUnchecked(
    const std::vector<Transaction>& txs, const ContractRegistry& registry,
    const StateReader& base, std::uint64_t step_limit = 1'000'000);

}  // namespace dcert::chain
