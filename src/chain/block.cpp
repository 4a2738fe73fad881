#include "chain/block.h"

#include "crypto/sha256.h"
#include "mht/merkle_tree.h"

namespace dcert::chain {

Bytes BlockHeader::Serialize() const {
  Encoder enc;
  enc.HashField(prev_hash);
  enc.U64(height);
  enc.U64(timestamp);
  enc.U64(consensus_nonce);
  enc.U32(difficulty_bits);
  enc.HashField(state_root);
  enc.HashField(tx_root);
  return enc.Take();
}

Result<BlockHeader> BlockHeader::Deserialize(ByteView data) {
  try {
    Decoder dec(data);
    BlockHeader hdr;
    hdr.prev_hash = dec.HashField();
    hdr.height = dec.U64();
    hdr.timestamp = dec.U64();
    hdr.consensus_nonce = dec.U64();
    hdr.difficulty_bits = dec.U32();
    hdr.state_root = dec.HashField();
    hdr.tx_root = dec.HashField();
    dec.ExpectEnd();
    return hdr;
  } catch (const DecodeError& e) {
    return Result<BlockHeader>::Error(std::string("BlockHeader: ") + e.what());
  }
}

Hash256 BlockHeader::Hash() const { return crypto::Sha256::Digest(Serialize()); }

std::size_t HeaderByteSize() {
  static const std::size_t size = BlockHeader{}.Serialize().size();
  return size;
}

Bytes Transaction::SigningPayload() const {
  Encoder enc;
  enc.Raw(sender.Serialize());
  enc.U64(nonce);
  enc.U64(contract_id);
  enc.U32(static_cast<std::uint32_t>(calldata.size()));
  for (std::uint64_t w : calldata) enc.U64(w);
  return enc.Take();
}

Transaction Transaction::Create(const crypto::SecretKey& sender_key,
                                std::uint64_t nonce, std::uint64_t contract_id,
                                std::vector<std::uint64_t> calldata) {
  Transaction tx;
  tx.sender = sender_key.Public();
  tx.nonce = nonce;
  tx.contract_id = contract_id;
  tx.calldata = std::move(calldata);
  tx.signature = sender_key.Sign(crypto::Sha256::Digest(tx.SigningPayload()));
  return tx;
}

Bytes Transaction::Serialize() const {
  Encoder enc;
  enc.Raw(SigningPayload());
  enc.Raw(signature.Serialize());
  return enc.Take();
}

Result<Transaction> Transaction::Deserialize(ByteView data) {
  using R = Result<Transaction>;
  try {
    Decoder dec(data);
    Transaction tx;
    Bytes pk_bytes = dec.Raw(64);
    auto pk = crypto::PublicKey::Deserialize(pk_bytes);
    if (!pk) return R::Error("Transaction: invalid sender key");
    tx.sender = *pk;
    tx.nonce = dec.U64();
    tx.contract_id = dec.U64();
    std::uint32_t n = dec.U32();
    tx.calldata.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) tx.calldata.push_back(dec.U64());
    Bytes sig_bytes = dec.Raw(64);
    dec.ExpectEnd();
    auto sig = crypto::Signature::Deserialize(sig_bytes);
    if (!sig) return R::Error("Transaction: invalid signature encoding");
    tx.signature = *sig;
    return tx;
  } catch (const DecodeError& e) {
    return R::Error(std::string("Transaction: ") + e.what());
  }
}

std::size_t Transaction::ByteSize() const {
  // Sender key, nonce, contract id, calldata length and words, signature.
  return 64 + 8 + 8 + 4 + 8 * calldata.size() + 64;
}

Hash256 Transaction::Hash() const { return crypto::Sha256::Digest(Serialize()); }

Status Transaction::VerifySignature() const {
  if (!crypto::Verify(sender, crypto::Sha256::Digest(SigningPayload()), signature)) {
    return Status::Error("transaction signature invalid");
  }
  return Status::Ok();
}

std::uint64_t Transaction::CallerWord() const {
  Hash256 h = crypto::Sha256::Digest(sender.Serialize());
  std::uint64_t w = 0;
  for (int i = 0; i < 8; ++i) w = (w << 8) | h[static_cast<std::size_t>(i)];
  return w;
}

const std::vector<Transaction>& TxList::Txs() const {
  static const std::vector<Transaction> kNone;
  return body_ ? *body_ : kNone;
}

std::vector<Transaction>& TxList::Mutable() {
  if (!body_ || body_.use_count() != 1) {
    body_ = std::make_shared<std::vector<Transaction>>(Txs());
  }
  return *body_;
}

Hash256 Block::ComputeTxRoot(const std::vector<Transaction>& txs) {
  std::vector<Hash256> leaves;
  leaves.reserve(txs.size());
  for (const Transaction& tx : txs) leaves.push_back(tx.Hash());
  return mht::MerkleTree::ComputeRoot(leaves);
}

Bytes Block::Serialize() const {
  Encoder enc;
  enc.Raw(header.Serialize());
  enc.U32(static_cast<std::uint32_t>(txs.size()));
  for (const Transaction& tx : txs) enc.Blob(tx.Serialize());
  return enc.Take();
}

std::size_t Block::ByteSize() const {
  std::size_t size = HeaderByteSize() + 4;  // header, tx count
  for (const Transaction& tx : txs) size += 4 + tx.ByteSize();  // blob length
  return size;
}

Result<Block> Block::Deserialize(ByteView data) {
  using R = Result<Block>;
  try {
    Decoder dec(data);
    Block block;
    Bytes hdr_bytes = dec.Raw(HeaderByteSize());
    auto hdr = BlockHeader::Deserialize(hdr_bytes);
    if (!hdr) return R(hdr.status());
    block.header = hdr.value();
    std::uint32_t n = dec.U32();
    std::vector<Transaction> txs;
    for (std::uint32_t i = 0; i < n; ++i) {
      Bytes tx_bytes = dec.Blob();
      auto tx = Transaction::Deserialize(tx_bytes);
      if (!tx) return R(tx.status());
      txs.push_back(std::move(tx.value()));
    }
    dec.ExpectEnd();
    block.txs = std::move(txs);
    return block;
  } catch (const DecodeError& e) {
    return R::Error(std::string("Block: ") + e.what());
  }
}

}  // namespace dcert::chain
