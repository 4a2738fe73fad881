#include "chain/node.h"

#include <stdexcept>

#include "mht/smt.h"

namespace dcert::chain {

Block MakeGenesisBlock(const ChainConfig& config) {
  Block genesis;
  genesis.header.prev_hash = Hash256();
  genesis.header.height = 0;
  genesis.header.timestamp = config.genesis_timestamp;
  genesis.header.difficulty_bits = config.difficulty_bits;
  genesis.header.state_root = mht::SparseMerkleTree().Root();
  genesis.header.tx_root = Block::ComputeTxRoot({});
  MineNonce(genesis.header);
  return genesis;
}

FullNode::FullNode(ChainConfig config,
                   std::shared_ptr<const ContractRegistry> registry)
    : config_(config), registry_(std::move(registry)) {
  if (!registry_) {
    throw std::invalid_argument("FullNode: registry must not be null");
  }
  blocks_.push_back(MakeGenesisBlock(config_));
}

Status FullNode::CheckExtendsTip(const BlockHeader& hdr) const {
  const BlockHeader& tip = Tip().header;
  if (hdr.prev_hash != tip.Hash()) {
    return Status::Error("block does not extend the current tip");
  }
  if (hdr.height != tip.height + 1) {
    return Status::Error("block height is not tip height + 1");
  }
  return Status::Ok();
}

Status FullNode::ApplyIfRootMatches(const Block& block, const StateMap& writes) {
  StateMap prior;  // apply, compare, and restore the touched keys on a mismatch
  state_.ApplyWrites(writes, &prior);
  if (state_.Root() != block.header.state_root) {
    state_.ApplyWrites(prior);
    return Status::Error("state root mismatch after execution");
  }
  blocks_.push_back(block);
  return Status::Ok();
}

Status FullNode::SubmitBlock(const Block& block) {
  const BlockHeader& hdr = block.header;
  if (Status st = CheckExtendsTip(hdr); !st) return st;
  if (hdr.difficulty_bits != config_.difficulty_bits) {
    return Status::Error("unexpected difficulty");
  }
  if (Status st = VerifyConsensus(hdr); !st) return st;
  if (hdr.tx_root != Block::ComputeTxRoot(block.txs)) {
    return Status::Error("transaction root mismatch");
  }

  auto executed = ExecuteBlockTxs(block.txs, *registry_, state_);
  if (!executed) return executed.status().WithContext("block execution");
  return ApplyIfRootMatches(block, executed.value().writes);
}

Status FullNode::AppendExecuted(const Block& block, const StateMap& writes) {
  if (Status st = CheckExtendsTip(block.header); !st) return st;
  return ApplyIfRootMatches(block, writes);
}

Status FullNode::InstallSnapshot(const Block& tip, const StateMap& state) {
  if (blocks_.size() != 1 || base_height_ != 0 || Height() != 0) {
    return Status::Error("snapshot install requires a node still at genesis");
  }
  const BlockHeader& hdr = tip.header;
  if (hdr.height == 0) {
    return Status::Error("snapshot tip must be above genesis");
  }
  if (hdr.difficulty_bits != config_.difficulty_bits) {
    return Status::Error("snapshot tip has unexpected difficulty");
  }
  if (Status st = VerifyConsensus(hdr); !st) {
    return st.WithContext("snapshot tip consensus");
  }
  if (hdr.tx_root != Block::ComputeTxRoot(tip.txs)) {
    return Status::Error("snapshot tip transaction root mismatch");
  }
  // Rebuild the committed state and require the SMT root the snapshot's
  // entries produce to be the root the (certified) tip header claims: a
  // snapshot with any entry added, dropped, or altered cannot match.
  StateDB rebuilt;
  rebuilt.ApplyWrites(state);
  if (rebuilt.Root() != hdr.state_root) {
    return Status::Error("snapshot state does not hash to the tip's state root");
  }
  state_ = std::move(rebuilt);
  blocks_.clear();
  blocks_.push_back(tip);
  base_height_ = hdr.height;
  return Status::Ok();
}

std::size_t FullNode::StorageBytes() const {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.ByteSize();
  return total;
}

Result<Block> Miner::MineBlock(std::vector<Transaction> txs,
                               std::uint64_t timestamp) const {
  using R = Result<Block>;
  auto executed = ExecuteBlockTxs(txs, node_->Registry(), node_->State());
  if (!executed) return R(executed.status().WithContext("mining execution"));

  Block block;
  block.header.prev_hash = node_->Tip().header.Hash();
  block.header.height = node_->Height() + 1;
  block.header.timestamp = timestamp;
  block.header.difficulty_bits = node_->Config().difficulty_bits;
  block.header.state_root =
      PredictRootAfterWrites(node_->State(), executed.value().writes);
  block.header.tx_root = Block::ComputeTxRoot(txs);
  block.txs = std::move(txs);
  MineNonce(block.header);
  return block;
}

LightClient::LightClient(const BlockHeader& genesis_header) {
  headers_.push_back(genesis_header);
}

Status LightClient::CheckLink(const BlockHeader& prev, const BlockHeader& next) {
  if (next.prev_hash != prev.Hash()) {
    return Status::Error("header does not link to the previous header");
  }
  if (next.height != prev.height + 1) {
    return Status::Error("non-consecutive header height");
  }
  return VerifyConsensus(next);
}

Status LightClient::SyncHeader(const BlockHeader& header) {
  if (Status st = CheckLink(headers_.back(), header); !st) return st;
  headers_.push_back(header);
  return Status::Ok();
}

Status LightClient::ValidateAll() const {
  if (Status st = VerifyConsensus(headers_.front()); !st) {
    return st.WithContext("genesis");
  }
  for (std::size_t i = 1; i < headers_.size(); ++i) {
    if (Status st = CheckLink(headers_[i - 1], headers_[i]); !st) {
      return st.WithContext("header " + std::to_string(i));
    }
  }
  return Status::Ok();
}

}  // namespace dcert::chain
