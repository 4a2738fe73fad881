#include "chain/executor.h"

#include <algorithm>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "mht/merkle_tree.h"
#include "vm/rwset_storage.h"

namespace dcert::chain {

void ContractRegistry::Install(std::uint64_t contract_id, vm::Program program) {
  programs_[contract_id] = std::move(program);
}

const vm::Program* ContractRegistry::Find(std::uint64_t contract_id) const {
  auto it = programs_.find(contract_id);
  return it == programs_.end() ? nullptr : &it->second;
}

Hash256 ContractRegistry::Digest() const {
  std::vector<Hash256> leaves;
  leaves.reserve(programs_.size());
  for (const auto& [id, program] : programs_) {
    Encoder enc;
    enc.U64(id);
    enc.HashField(crypto::Sha256::Digest(program.code));
    leaves.push_back(crypto::Sha256::Digest(enc.bytes()));
  }
  return mht::MerkleTree::ComputeRoot(leaves);
}

namespace {

/// Block-level overlay with read capture: reads fall through buffered writes
/// to the base, writes layer on top (read-your-writes across transactions).
class BlockOverlay {
 public:
  explicit BlockOverlay(const StateReader& base) : base_(&base) {}

  std::uint64_t Load(const StateKey& key) {
    if (auto it = overlay_.find(key); it != overlay_.end()) return it->second;
    std::uint64_t v = base_->Load(key);
    reads_.emplace(key, v);  // first observation of the pre-state
    return v;
  }

  void Store(const StateKey& key, std::uint64_t value) { overlay_[key] = value; }

  StateMap& reads() { return reads_; }
  StateMap& writes() { return overlay_; }

 private:
  const StateReader* base_;
  StateMap reads_;
  StateMap overlay_;
};

/// VM storage adapter: binds a contract id, buffers this transaction's
/// writes so a revert can discard them.
class TxStorage final : public vm::StorageView {
 public:
  TxStorage(BlockOverlay& overlay, std::uint64_t contract_id)
      : overlay_(&overlay), contract_id_(contract_id) {}

  std::uint64_t Load(std::uint64_t slot) override {
    StateKey key = SlotKey(contract_id_, slot);
    if (auto it = tx_writes_.find(key); it != tx_writes_.end()) return it->second;
    return overlay_->Load(key);
  }

  void Store(std::uint64_t slot, std::uint64_t value) override {
    tx_writes_[SlotKey(contract_id_, slot)] = value;
  }

  void Commit() {
    for (const auto& [key, value] : tx_writes_) overlay_->Store(key, value);
  }

 private:
  BlockOverlay* overlay_;
  std::uint64_t contract_id_;
  StateMap tx_writes_;
};

/// Smallest chunk worth a VerifyBatch dispatch: below this the pool hand-off
/// costs more than the shared-doubling multi-scalar multiplication saves.
constexpr std::size_t kMinSignatureChunk = 8;

}  // namespace

Status VerifyTxSignatures(const std::vector<Transaction>& txs) {
  const std::size_t n = txs.size();
  if (n == 0) return Status::Ok();
  // One chunk per runner (the pool's workers plus the calling thread).
  common::ThreadPool& pool = common::ThreadPool::Shared();
  const std::size_t runners = pool.WorkerCount() + 1;
  const std::size_t chunk =
      std::max(kMinSignatureChunk, (n + runners - 1) / runners);
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::vector<std::size_t> first_bad(chunks, n);  // n = chunk all valid
  pool.ParallelFor(chunks, [&](std::size_t c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    std::vector<Hash256> digests;
    digests.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      digests.push_back(crypto::Sha256::Digest(txs[i].SigningPayload()));
    }
    std::vector<crypto::VerifyJob> jobs;
    jobs.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      jobs.push_back({&txs[i].sender, &digests[i - lo], &txs[i].signature});
    }
    const std::vector<bool> ok = crypto::VerifyBatch(jobs.data(), jobs.size());
    const auto bad = std::find(ok.begin(), ok.end(), false);
    if (bad != ok.end()) {
      first_bad[c] = lo + static_cast<std::size_t>(bad - ok.begin());
    }
  });
  for (std::size_t bad : first_bad) {
    if (bad < n) {
      return Status::Error("tx " + std::to_string(bad) +
                           ": transaction signature invalid");
    }
  }
  return Status::Ok();
}

Result<BlockExecutionResult> ExecuteBlockTxs(const std::vector<Transaction>& txs,
                                             const ContractRegistry& registry,
                                             const StateReader& base,
                                             std::uint64_t step_limit) {
  if (Status st = VerifyTxSignatures(txs); !st) {
    return Result<BlockExecutionResult>(st);
  }
  return ExecuteBlockTxsUnchecked(txs, registry, base, step_limit);
}

Result<BlockExecutionResult> ExecuteBlockTxsUnchecked(
    const std::vector<Transaction>& txs, const ContractRegistry& registry,
    const StateReader& base, std::uint64_t step_limit) {
  using R = Result<BlockExecutionResult>;
  BlockExecutionResult result;
  BlockOverlay overlay(base);

  try {
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const Transaction& tx = txs[i];
      StateKey nonce_key = NonceKey(tx.sender);
      std::uint64_t expected_nonce = overlay.Load(nonce_key);
      if (tx.nonce != expected_nonce) {
        return R::Error("tx " + std::to_string(i) + ": nonce mismatch (got " +
                        std::to_string(tx.nonce) + ", expected " +
                        std::to_string(expected_nonce) + ")");
      }
      overlay.Store(nonce_key, expected_nonce + 1);

      TxReceipt receipt;
      const vm::Program* program = registry.Find(tx.contract_id);
      if (program == nullptr) {
        receipt.success = false;
        receipt.error = "unknown contract";
        result.receipts.push_back(std::move(receipt));
        continue;
      }
      vm::ExecContext ctx;
      ctx.caller = tx.CallerWord();
      ctx.calldata = tx.calldata;
      ctx.step_limit = step_limit;
      TxStorage storage(overlay, tx.contract_id);
      vm::ExecResult exec = vm::Execute(*program, ctx, storage);
      receipt.success = exec.success;
      receipt.error = exec.error;
      receipt.steps = exec.steps;
      if (exec.success) storage.Commit();  // reverts simply drop tx_writes_
      result.receipts.push_back(std::move(receipt));
    }
  } catch (const vm::ReadOutsideReadSet& e) {
    return R::Error(e.what());
  }

  result.reads = std::move(overlay.reads());
  result.writes = std::move(overlay.writes());
  return result;
}

}  // namespace dcert::chain
