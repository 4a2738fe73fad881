// Node roles: full node (validate + store everything), miner (propose
// blocks), and the *traditional* light client that DCert's superlight client
// is benchmarked against (Fig. 7) — it stores and validates every header.
#pragma once

#include <memory>
#include <vector>

#include "chain/block.h"
#include "chain/consensus.h"
#include "chain/executor.h"
#include "chain/state.h"
#include "common/status.h"

namespace dcert::chain {

struct ChainConfig {
  std::uint32_t difficulty_bits = 8;
  std::uint64_t genesis_timestamp = 1'700'000'000;
};

/// Deterministic genesis block (height 0, empty state, no transactions).
Block MakeGenesisBlock(const ChainConfig& config);

class FullNode {
 public:
  FullNode(ChainConfig config, std::shared_ptr<const ContractRegistry> registry);

  const ChainConfig& Config() const { return config_; }
  const ContractRegistry& Registry() const { return *registry_; }

  const Block& Tip() const { return blocks_.back(); }
  std::uint64_t Height() const { return Tip().header.height; }
  /// Throws std::out_of_range for heights above the tip or below BaseHeight()
  /// (history a snapshot-started node never held).
  const Block& GetBlock(std::uint64_t height) const {
    return blocks_.at(height - base_height_);
  }
  const StateDB& State() const { return state_; }

  /// First height this node holds a block for: 0 for a genesis-grown node,
  /// the snapshot height after InstallSnapshot.
  std::uint64_t BaseHeight() const { return base_height_; }
  bool HasBlock(std::uint64_t height) const {
    return height >= base_height_ && height - base_height_ < blocks_.size();
  }

  /// Full validation: header linkage, consensus proof, tx root, re-execution,
  /// and state-root check — then append.
  Status SubmitBlock(const Block& block);

  /// Appends a block whose execution the caller already holds from a
  /// verifier it trusts — the CI once its enclave has checked and signed the
  /// block (consensus, tx root, signatures, replay) — applying `writes`
  /// instead of re-executing. Checks header linkage and that `writes` take
  /// the state to the header's state root; on a mismatch the state is left
  /// exactly as it was (the touched keys are restored).
  Status AppendExecuted(const Block& block, const StateMap& writes);

  /// Re-bases a node still at genesis onto a state snapshot: after this the
  /// node's tip is `tip` (height >= 1), its state is `state`, and blocks
  /// below the tip are unavailable. Verifies everything the snapshot claims
  /// that can be checked locally — consensus proof, tx root, and that the
  /// rebuilt SMT root equals tip.header.state_root — so a tampered snapshot
  /// never installs. Trust in the *chain position* (that this tip really is
  /// the certified chain's block at that height) comes from the certificate
  /// the caller verified against the tip header.
  Status InstallSnapshot(const Block& tip, const StateMap& state);

  /// Bytes a full node stores for the whole chain (headers + bodies).
  std::size_t StorageBytes() const;

 private:
  Status CheckExtendsTip(const BlockHeader& hdr) const;
  /// Applies `writes` and appends `block` when they reach its state root;
  /// otherwise restores the touched keys' prior values.
  Status ApplyIfRootMatches(const Block& block, const StateMap& writes);

  ChainConfig config_;
  std::shared_ptr<const ContractRegistry> registry_;
  std::vector<Block> blocks_;  // blocks_[i] holds height base_height_ + i
  std::uint64_t base_height_ = 0;
  StateDB state_;
};

/// Builds valid blocks on top of a full node's current tip without mutating
/// its state (the produced block is then submitted to the network).
class Miner {
 public:
  explicit Miner(const FullNode& node) : node_(&node) {}

  /// Executes `txs` against the node's tip state, derives the new state root
  /// statelessly, assembles the header, and mines the consensus nonce.
  /// Fails when the transactions are invalid on this state.
  Result<Block> MineBlock(std::vector<Transaction> txs,
                          std::uint64_t timestamp) const;

 private:
  const FullNode* node_;
};

/// Traditional light client: keeps every header, validates linkage +
/// consensus. The Fig. 7 baseline.
class LightClient {
 public:
  explicit LightClient(const BlockHeader& genesis_header);

  /// Validates and appends the next header.
  Status SyncHeader(const BlockHeader& header);

  std::uint64_t Height() const { return headers_.back().height; }
  std::size_t HeaderCount() const { return headers_.size(); }

  /// Storage footprint: all headers (what Fig. 7a plots).
  std::size_t StorageBytes() const { return headers_.size() * HeaderByteSize(); }

  /// Re-validates the whole stored chain — the bootstrap work a freshly
  /// joined light client performs (what Fig. 7b times).
  Status ValidateAll() const;

 private:
  static Status CheckLink(const BlockHeader& prev, const BlockHeader& next);

  std::vector<BlockHeader> headers_;
};

}  // namespace dcert::chain
