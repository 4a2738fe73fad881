// Block structure (paper Fig. 1): headers carry the previous-block hash, the
// consensus proof, and the state and transaction Merkle roots; bodies carry
// the signed transactions.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/serialize.h"
#include "common/status.h"
#include "crypto/signature.h"

namespace dcert::chain {

struct BlockHeader {
  Hash256 prev_hash;                 // H_prev_blk
  std::uint64_t height = 0;
  std::uint64_t timestamp = 0;
  std::uint64_t consensus_nonce = 0; // the PoW part of pi_cons
  std::uint32_t difficulty_bits = 0; // required leading zero bits of the hash
  Hash256 state_root;                // H_state
  Hash256 tx_root;                   // H_tx

  Bytes Serialize() const;
  static Result<BlockHeader> Deserialize(ByteView data);
  /// Header digest — the chain link and the value DCert certificates sign.
  Hash256 Hash() const;

  bool operator==(const BlockHeader&) const = default;
};

/// A signed transaction: `sender` invokes `contract_id` with `calldata`.
struct Transaction {
  crypto::PublicKey sender;
  std::uint64_t nonce = 0;
  std::uint64_t contract_id = 0;
  std::vector<std::uint64_t> calldata;
  crypto::Signature signature;

  /// Builds and signs a transaction.
  static Transaction Create(const crypto::SecretKey& sender_key,
                            std::uint64_t nonce, std::uint64_t contract_id,
                            std::vector<std::uint64_t> calldata);

  Bytes SigningPayload() const;
  Bytes Serialize() const;
  static Result<Transaction> Deserialize(ByteView data);
  /// Serialize().size(), counted without serializing.
  std::size_t ByteSize() const;
  Hash256 Hash() const;

  /// The validity check miners, full nodes, and the enclave all run.
  Status VerifySignature() const;

  /// The caller word the VM sees (low 64 bits of the sender key hash).
  std::uint64_t CallerWord() const;
};

/// A block body: an immutable transaction list shared by every copy of the
/// block. Copying a Block copies a reference (as Bitcoin Core's
/// CTransactionRef does), so the miner's node, the CI's node and an SP that
/// hold the same block keep one body between them. Reads look like a const
/// std::vector<Transaction>; Mutable() first copies a shared body
/// (copy-on-write), so editing one copy of a block never reaches another.
class TxList {
 public:
  TxList() = default;
  TxList(std::vector<Transaction> txs)  // NOLINT: implicit, like the vector
      : body_(std::make_shared<std::vector<Transaction>>(std::move(txs))) {}

  operator const std::vector<Transaction>&() const { return Txs(); }  // NOLINT

  std::size_t size() const { return Txs().size(); }
  bool empty() const { return Txs().empty(); }
  const Transaction& operator[](std::size_t i) const { return Txs()[i]; }
  std::vector<Transaction>::const_iterator begin() const { return Txs().begin(); }
  std::vector<Transaction>::const_iterator end() const { return Txs().end(); }

  /// The body for editing (tests that tamper with a block); copies it first
  /// when another TxList shares it. Not for use while another thread may be
  /// copying or reading a block that shares this body.
  std::vector<Transaction>& Mutable();

 private:
  const std::vector<Transaction>& Txs() const;

  std::shared_ptr<std::vector<Transaction>> body_;  // null = no transactions
};

struct Block {
  BlockHeader header;
  TxList txs;

  /// Merkle root over the transaction hashes (H_tx).
  static Hash256 ComputeTxRoot(const std::vector<Transaction>& txs);

  Bytes Serialize() const;
  static Result<Block> Deserialize(ByteView data);

  /// Total serialized size — what a full node stores per block, and the
  /// block's share of an Ecall's input. Counted without serializing.
  std::size_t ByteSize() const;
};

/// Fixed serialized size of a header (all fields are fixed width).
std::size_t HeaderByteSize();

}  // namespace dcert::chain
