// Chain substrate: blocks, consensus, execution, miner/full-node/light-client.
#include <gtest/gtest.h>

#include "chain/block.h"
#include "chain/consensus.h"
#include "chain/executor.h"
#include "chain/node.h"
#include "chain/state.h"
#include "workloads/workloads.h"

namespace dcert::chain {
namespace {

using workloads::AccountPool;
using workloads::ContractId;
using workloads::Workload;
using workloads::WorkloadGenerator;

std::shared_ptr<const ContractRegistry> TestRegistry() {
  static std::shared_ptr<const ContractRegistry> registry =
      workloads::MakeBlockbenchRegistry(2);
  return registry;
}

ChainConfig TestConfig() {
  ChainConfig config;
  config.difficulty_bits = 4;  // fast mining for tests
  return config;
}

TEST(BlockHeaderTest, SerializationRoundTrip) {
  BlockHeader hdr;
  hdr.prev_hash = Hash256::FromHex(std::string(64, 'b'));
  hdr.height = 7;
  hdr.timestamp = 123456;
  hdr.consensus_nonce = 42;
  hdr.difficulty_bits = 8;
  auto decoded = BlockHeader::Deserialize(hdr.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), hdr);
  EXPECT_EQ(decoded.value().Hash(), hdr.Hash());
  EXPECT_EQ(hdr.Serialize().size(), HeaderByteSize());
}

TEST(TransactionTest, CreateVerifyRoundTrip) {
  AccountPool pool(2, 1);
  Transaction tx = pool.MakeTx(0, ContractId(Workload::kKvStore, 0), {0, 5, 99});
  EXPECT_TRUE(tx.VerifySignature().ok());

  auto decoded = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().VerifySignature().ok());
  EXPECT_EQ(decoded.value().Hash(), tx.Hash());
}

TEST(TransactionTest, TamperingBreaksSignature) {
  AccountPool pool(1, 2);
  Transaction tx = pool.MakeTx(0, 3000, {0, 1, 2});
  tx.calldata[2] = 3;
  EXPECT_FALSE(tx.VerifySignature().ok());
}

TEST(ConsensusTest, MineAndVerify) {
  BlockHeader hdr;
  hdr.difficulty_bits = 8;
  MineNonce(hdr);
  EXPECT_TRUE(VerifyConsensus(hdr).ok());
  hdr.consensus_nonce += 1;
  // With 8 difficulty bits a random neighboring nonce almost surely fails.
  // (If it happened to pass, incrementing again will not; check both.)
  if (VerifyConsensus(hdr).ok()) {
    hdr.consensus_nonce += 1;
  }
  EXPECT_FALSE(VerifyConsensus(hdr).ok());
}

TEST(ConsensusTest, ExcessiveDifficultyRejected) {
  BlockHeader hdr;
  hdr.difficulty_bits = 60;
  EXPECT_THROW(MineNonce(hdr), std::invalid_argument);
}

TEST(ConsensusTest, ChainSelectionIsLongestChain) {
  BlockHeader taller;
  taller.height = 10;
  EXPECT_TRUE(SatisfiesChainSelection(9, taller));
  EXPECT_FALSE(SatisfiesChainSelection(10, taller));
  EXPECT_FALSE(SatisfiesChainSelection(11, taller));
}

TEST(StateTest, StateDbAndValueHash) {
  StateDB db;
  StateKey key = SlotKey(1, 2);
  EXPECT_EQ(db.Load(key), 0u);
  db.Store(key, 99);
  EXPECT_EQ(db.Load(key), 99u);
  Hash256 root_with = db.Root();
  db.Store(key, 0);  // delete
  EXPECT_EQ(db.Load(key), 0u);
  EXPECT_NE(db.Root(), root_with);
  EXPECT_TRUE(StateValueHash(0).IsZero());
  EXPECT_FALSE(StateValueHash(7).IsZero());
}

TEST(StateTest, KeysAreDomainSeparated) {
  AccountPool pool(1, 3);
  EXPECT_NE(SlotKey(1, 2), SlotKey(2, 1));
  EXPECT_NE(SlotKey(0, 0), NonceKey(pool.PublicKeyAt(0)));
}

TEST(ExecutorTest, KvPutUpdatesState) {
  AccountPool pool(1, 4);
  StateDB db;
  std::uint64_t kv = ContractId(Workload::kKvStore, 0);
  std::vector<Transaction> txs{pool.MakeTx(0, kv, {0, 7, 1234})};
  auto result = ExecuteBlockTxs(txs, *TestRegistry(), db);
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_TRUE(result.value().receipts[0].success);
  EXPECT_EQ(result.value().writes.at(SlotKey(kv, 7)), 1234u);
  // Nonce consumed.
  EXPECT_EQ(result.value().writes.at(NonceKey(pool.PublicKeyAt(0))), 1u);
}

TEST(ExecutorTest, NonceMismatchInvalidatesBlock) {
  AccountPool pool(1, 5);
  StateDB db;
  std::uint64_t kv = ContractId(Workload::kKvStore, 0);
  pool.MakeTx(0, kv, {0, 1, 1});  // burn nonce 0
  std::vector<Transaction> txs{pool.MakeTx(0, kv, {0, 2, 2})};  // nonce 1 vs state 0
  auto result = ExecuteBlockTxs(txs, *TestRegistry(), db);
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, InvalidSignatureInvalidatesBlock) {
  AccountPool pool(1, 6);
  StateDB db;
  Transaction tx = pool.MakeTx(0, ContractId(Workload::kKvStore, 0), {0, 1, 1});
  tx.calldata[2] = 99;  // breaks the signature
  auto result = ExecuteBlockTxs({tx}, *TestRegistry(), db);
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, UnknownContractRevertsButConsumesNonce) {
  AccountPool pool(1, 7);
  StateDB db;
  std::vector<Transaction> txs{pool.MakeTx(0, 999'999, {1, 2, 3})};
  auto result = ExecuteBlockTxs(txs, *TestRegistry(), db);
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_FALSE(result.value().receipts[0].success);
  EXPECT_EQ(result.value().writes.at(NonceKey(pool.PublicKeyAt(0))), 1u);
  EXPECT_EQ(result.value().writes.size(), 1u);  // only the nonce
}

TEST(ExecutorTest, RevertDiscardsStorageWrites) {
  // SmallBank sendPayment with insufficient balance reverts.
  AccountPool pool(1, 8);
  StateDB db;
  std::uint64_t sb = ContractId(Workload::kSmallBank, 0);
  std::vector<Transaction> txs{pool.MakeTx(0, sb, {3, 1, 2, 50})};
  auto result = ExecuteBlockTxs(txs, *TestRegistry(), db);
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_FALSE(result.value().receipts[0].success);
  // Nonce write only — the payment's partial writes were discarded.
  EXPECT_EQ(result.value().writes.size(), 1u);
}

TEST(ExecutorTest, ReadYourWritesAcrossTransactions) {
  AccountPool pool(2, 9);
  StateDB db;
  std::uint64_t sb = ContractId(Workload::kSmallBank, 0);
  std::vector<Transaction> txs{
      pool.MakeTx(0, sb, {1, 5, 100}),    // deposit 100 to account 5
      pool.MakeTx(1, sb, {3, 5, 6, 60}),  // pay 60 from 5 to 6 — needs tx 1's write
  };
  auto result = ExecuteBlockTxs(txs, *TestRegistry(), db);
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_TRUE(result.value().receipts[0].success);
  EXPECT_TRUE(result.value().receipts[1].success);
  EXPECT_EQ(result.value().writes.at(SlotKey(sb, 5 * 2 + 1)), 40u);
  EXPECT_EQ(result.value().writes.at(SlotKey(sb, 6 * 2 + 1)), 60u);
}

TEST(ExecutorTest, RegistryDigestPinsCode) {
  auto a = workloads::MakeBlockbenchRegistry(2);
  auto b = workloads::MakeBlockbenchRegistry(2);
  auto c = workloads::MakeBlockbenchRegistry(3);
  EXPECT_EQ(a->Digest(), b->Digest());
  EXPECT_NE(a->Digest(), c->Digest());
}

TEST(NodeTest, GenesisIsDeterministic) {
  Block g1 = MakeGenesisBlock(TestConfig());
  Block g2 = MakeGenesisBlock(TestConfig());
  EXPECT_EQ(g1.header.Hash(), g2.header.Hash());
  EXPECT_TRUE(VerifyConsensus(g1.header).ok());
}

TEST(NodeTest, MineSubmitRoundTrip) {
  FullNode node(TestConfig(), TestRegistry());
  AccountPool pool(4, 10);
  WorkloadGenerator::Params params;
  params.kind = Workload::kKvStore;
  params.instances_per_workload = 2;
  WorkloadGenerator gen(params, pool);
  Miner miner(node);

  for (int i = 0; i < 5; ++i) {
    auto block = miner.MineBlock(gen.NextBlockTxs(10), 1000 + i);
    ASSERT_TRUE(block.ok()) << block.message();
    ASSERT_TRUE(node.SubmitBlock(block.value()).ok());
  }
  EXPECT_EQ(node.Height(), 5u);
  EXPECT_GT(node.State().Size(), 0u);
  EXPECT_GT(node.StorageBytes(), 5 * HeaderByteSize());
}

TEST(NodeTest, SubmitRejectsTamperedBlocks) {
  FullNode node(TestConfig(), TestRegistry());
  AccountPool pool(2, 11);
  WorkloadGenerator::Params params;
  params.kind = Workload::kSmallBank;
  params.instances_per_workload = 2;
  WorkloadGenerator gen(params, pool);
  Miner miner(node);
  auto block = miner.MineBlock(gen.NextBlockTxs(5), 1000);
  ASSERT_TRUE(block.ok());

  Block wrong_height = block.value();
  wrong_height.header.height += 1;
  EXPECT_FALSE(node.SubmitBlock(wrong_height).ok());

  Block wrong_state = block.value();
  wrong_state.header.state_root[0] ^= 1;
  MineNonce(wrong_state.header);
  EXPECT_FALSE(node.SubmitBlock(wrong_state).ok());

  Block dropped_tx = block.value();
  dropped_tx.txs.Mutable().pop_back();
  EXPECT_FALSE(node.SubmitBlock(dropped_tx).ok());

  Block bad_nonce = block.value();
  bad_nonce.header.consensus_nonce += 1;
  if (VerifyConsensus(bad_nonce.header).ok()) bad_nonce.header.consensus_nonce += 1;
  EXPECT_FALSE(node.SubmitBlock(bad_nonce).ok());

  // The untouched block still goes through.
  EXPECT_TRUE(node.SubmitBlock(block.value()).ok());
}

TEST(LightClientTest, SyncAndValidate) {
  FullNode node(TestConfig(), TestRegistry());
  AccountPool pool(2, 12);
  WorkloadGenerator::Params params;
  params.kind = Workload::kDoNothing;
  params.instances_per_workload = 2;
  WorkloadGenerator gen(params, pool);
  Miner miner(node);

  LightClient client(node.GetBlock(0).header);
  for (int i = 0; i < 10; ++i) {
    auto block = miner.MineBlock(gen.NextBlockTxs(2), 2000 + i);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(node.SubmitBlock(block.value()).ok());
    ASSERT_TRUE(client.SyncHeader(block.value().header).ok());
  }
  EXPECT_EQ(client.Height(), 10u);
  EXPECT_EQ(client.StorageBytes(), 11 * HeaderByteSize());
  EXPECT_TRUE(client.ValidateAll().ok());
}

TEST(LightClientTest, RejectsBrokenLinkage) {
  FullNode node(TestConfig(), TestRegistry());
  LightClient client(node.GetBlock(0).header);
  BlockHeader fake;
  fake.height = 1;
  fake.prev_hash = Hash256();  // wrong parent
  fake.difficulty_bits = TestConfig().difficulty_bits;
  MineNonce(fake);
  EXPECT_FALSE(client.SyncHeader(fake).ok());

  BlockHeader skip = node.GetBlock(0).header;
  skip.height = 5;  // non-consecutive
  skip.prev_hash = node.GetBlock(0).header.Hash();
  MineNonce(skip);
  EXPECT_FALSE(client.SyncHeader(skip).ok());
}

TEST(BlockTest, SerializationRoundTrip) {
  FullNode node(TestConfig(), TestRegistry());
  AccountPool pool(2, 13);
  WorkloadGenerator::Params params;
  params.kind = Workload::kKvStore;
  params.instances_per_workload = 2;
  WorkloadGenerator gen(params, pool);
  Miner miner(node);
  auto block = miner.MineBlock(gen.NextBlockTxs(3), 1);
  ASSERT_TRUE(block.ok());
  auto decoded = Block::Deserialize(block.value().Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  EXPECT_EQ(decoded.value().header, block.value().header);
  EXPECT_EQ(decoded.value().txs.size(), 3u);
}

}  // namespace
}  // namespace dcert::chain
