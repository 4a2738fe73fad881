// Micro-benchmarks for the primitives underpinning the figure benchmarks:
// SHA-256 backends (scalar / SHA-NI / AVX2 multi-buffer), batched vs single
// Schnorr verification, a block's transaction-signature check, the batched
// tree-hashing paths (Merkle build, SMT UpdateBatch and proofs), and MB-tree
// builds. Each A/B section cross-checks that both variants produce identical
// outputs before reporting the speedup, so the numbers can never drift away
// from a correctness regression silently.
#include <cinttypes>
#include <map>

#include "bench/bench_util.h"
#include "chain/executor.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "crypto/sha256_batch.h"
#include "crypto/signature.h"
#include "mht/mbtree.h"
#include "mht/merkle_tree.h"
#include "mht/node_hash.h"
#include "mht/smt.h"
#include "sgxsim/enclave.h"

using namespace dcert;
using namespace dcert::bench;

namespace {

/// Wall time of `fn` repeated until ~`min_ms` of run time, in ns per call.
template <typename Fn>
double NsPerCall(Fn&& fn, double min_ms = 120.0) {
  std::uint64_t calls = 0;
  Stopwatch sw;
  do {
    fn();
    ++calls;
  } while (sw.ElapsedMs() < min_ms);
  return static_cast<double>(sw.ElapsedNs()) / static_cast<double>(calls);
}

/// Minimum ns/call over `reps` timing windows. The host is a shared vCPU, so
/// a single window can absorb a preemption; the minimum estimates the
/// undisturbed cost (standard practice for noisy machines).
template <typename Fn>
double MinNsPerCall(Fn&& fn, int reps = 3, double min_ms = 60.0) {
  double best = NsPerCall(fn, min_ms);
  for (int r = 1; r < reps; ++r) best = std::min(best, NsPerCall(fn, min_ms));
  return best;
}

/// Min-of-windows for an A/B pair, with the windows interleaved
/// (A,B,A,B,...) rather than all-A-then-all-B, so a contention episode that
/// spans several windows lands on both variants instead of distorting the
/// ratio in whichever direction it happened to fall.
template <typename FnA, typename FnB>
std::pair<double, double> MinNsPerCallAb(FnA&& a, FnB&& b, int reps = 3,
                                         double min_ms = 60.0) {
  double best_a = NsPerCall(a, min_ms);
  double best_b = NsPerCall(b, min_ms);
  for (int r = 1; r < reps; ++r) {
    best_a = std::min(best_a, NsPerCall(a, min_ms));
    best_b = std::min(best_b, NsPerCall(b, min_ms));
  }
  return {best_a, best_b};
}

struct BackendRow {
  std::string name;
  bool supported = false;
  double tree_mhash_s = 0;   // 65-byte pre-padded tree messages, batched
  double tree_mb_s = 0;
  double bulk_mb_s = 0;      // 1 KiB messages, batched
};

/// Batched hashing throughput of one backend over the tree-node shape
/// (65-byte two-block messages) and a bulk shape (1 KiB).
BackendRow MeasureBackend(crypto::ShaBackend backend) {
  BackendRow row;
  row.name = crypto::ShaBackendName(backend);
  row.supported = crypto::ShaBackendSupported(backend);
  if (!row.supported) return row;

  constexpr std::size_t kTreeJobs = 4096;
  constexpr std::size_t kTreeMsg = 65;
  std::vector<std::uint8_t> tree_data(kTreeJobs * kTreeMsg, 0xa5);
  std::vector<Hash256> out(kTreeJobs);
  std::vector<crypto::HashJob> jobs(kTreeJobs);
  for (std::size_t i = 0; i < kTreeJobs; ++i) {
    jobs[i] = {tree_data.data() + i * kTreeMsg, kTreeMsg, &out[i]};
  }
  double ns = NsPerCall([&] {
    crypto::internal::HashManyWith(backend, jobs.data(), jobs.size());
  });
  row.tree_mhash_s = kTreeJobs / (ns / 1e3);  // ns/batch -> Mhash/s
  row.tree_mb_s = kTreeJobs * kTreeMsg * 1e3 / ns;

  constexpr std::size_t kBulkJobs = 256;
  constexpr std::size_t kBulkMsg = 1024;
  std::vector<std::uint8_t> bulk_data(kBulkJobs * kBulkMsg, 0x5a);
  std::vector<Hash256> bulk_out(kBulkJobs);
  std::vector<crypto::HashJob> bulk_jobs(kBulkJobs);
  for (std::size_t i = 0; i < kBulkJobs; ++i) {
    bulk_jobs[i] = {bulk_data.data() + i * kBulkMsg, kBulkMsg, &bulk_out[i]};
  }
  double bulk_ns = NsPerCall([&] {
    crypto::internal::HashManyWith(backend, bulk_jobs.data(), bulk_jobs.size());
  });
  row.bulk_mb_s = kBulkJobs * kBulkMsg * 1e3 / bulk_ns;
  return row;
}

/// `prefix` followed by decimal `i`. Appending to a named string keeps GCC
/// 12's -Wrestrict false positive on `const char* + string&&` out of the
/// build.
std::string Numbered(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

Hash256 KeyOf(int i) {
  return crypto::Sha256::Digest(StrBytes(Numbered("key", i)));
}
Hash256 ValOf(int i) {
  return crypto::Sha256::Digest(StrBytes(Numbered("val", i)));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ParseJsonPath(argc, argv);
  PrintHeader("primitives", "hashing / signing / tree-batching constants");
  PrintParams(std::string("active backends: stream=") +
              crypto::ShaBackendName(crypto::ActiveStreamBackend()) +
              " batch=" + crypto::ShaBackendName(crypto::ActiveBatchBackend()));

  // --- SHA-256: streaming baseline -------------------------------------
  Bytes msg65(65, 0xa5);
  double stream_ns = NsPerCall([&] { crypto::Sha256::Digest(msg65); });
  double stream_mhash = 1e3 / stream_ns;
  std::printf("\nSHA-256 streaming (Sha256::Digest, 65-byte msgs): %.2f Mhash/s\n",
              stream_mhash);

  // --- SHA-256: per-backend batched throughput -------------------------
  std::printf("\n%-8s | %10s %10s | %10s\n", "backend", "tree Mh/s", "tree MB/s",
              "1KiB MB/s");
  std::printf("---------+-----------------------+-----------\n");
  std::vector<BackendRow> backends;
  for (crypto::ShaBackend b :
       {crypto::ShaBackend::kScalar, crypto::ShaBackend::kShaNi,
        crypto::ShaBackend::kAvx2}) {
    BackendRow row = MeasureBackend(b);
    if (row.supported) {
      std::printf("%-8s | %10.2f %10.1f | %10.1f\n", row.name.c_str(),
                  row.tree_mhash_s, row.tree_mb_s, row.bulk_mb_s);
    } else {
      std::printf("%-8s | %21s | %10s\n", row.name.c_str(), "(unsupported)", "-");
    }
    backends.push_back(std::move(row));
  }

  // --- Tree hashing: per-node streaming vs batched multi-buffer --------
  constexpr std::size_t kPairs = 4096;
  std::vector<Hash256> lefts(kPairs), rights(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    lefts[i] = KeyOf(static_cast<int>(i));
    rights[i] = ValOf(static_cast<int>(i));
  }
  std::vector<Hash256> ref(kPairs), batched(kPairs);
  std::vector<mht::NodePairJob> pair_jobs(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    pair_jobs[i] = {&lefts[i], &rights[i], &batched[i]};
  }
  auto [pernode_ns, batch_ns] = MinNsPerCallAb(
      [&] {
        for (std::size_t i = 0; i < kPairs; ++i) {
          ref[i] =
              mht::TaggedDigest2(mht::NodeTag::kSmtInternal, lefts[i], rights[i]);
        }
      },
      [&] {
        mht::TaggedDigest2Many(mht::NodeTag::kSmtInternal, pair_jobs.data(),
                               kPairs);
      });
  if (ref != batched) {
    std::fprintf(stderr, "FATAL: batched tree hashes diverge from streaming\n");
    return 1;
  }
  double tree_speedup = pernode_ns / batch_ns;
  std::printf("\nsibling-pair hashing (%zu pairs): per-node %.0f ns/hash, "
              "batched %.0f ns/hash -> %.2fx\n",
              kPairs, pernode_ns / kPairs, batch_ns / kPairs, tree_speedup);

  // --- Merkle tree build (batched level construction) ------------------
  std::vector<Hash256> leaves;
  for (int i = 0; i < 4096; ++i) leaves.push_back(KeyOf(i));
  // Reference: the pre-batching per-node construction, kept bench-local.
  auto legacy_merkle = [&]() {
    std::vector<Hash256> level;
    level.reserve(leaves.size());
    for (const Hash256& h : leaves) {
      level.push_back(mht::TaggedDigest(mht::NodeTag::kMerkleLeaf, h.View()));
    }
    while (level.size() > 1) {
      std::vector<Hash256> next;
      next.reserve((level.size() + 1) / 2);
      for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
        next.push_back(
            mht::TaggedDigest2(mht::NodeTag::kMerkleInternal, level[i], level[i + 1]));
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    return level.front();
  };
  auto [merkle_legacy_ns, merkle_ns] = MinNsPerCallAb(
      legacy_merkle, [&] { mht::MerkleTree::ComputeRoot(leaves); });
  if (legacy_merkle() != mht::MerkleTree::ComputeRoot(leaves)) {
    std::fprintf(stderr, "FATAL: batched Merkle root diverges\n");
    return 1;
  }
  double merkle_speedup = merkle_legacy_ns / merkle_ns;
  std::printf("Merkle build (4096 leaves): legacy %.2f ms, batched %.2f ms -> %.2fx\n",
              merkle_legacy_ns / 1e6, merkle_ns / 1e6, merkle_speedup);

  // --- SMT UpdateBatch: per-key Update vs one deferred rehash ---------
  constexpr int kSmtBase = 10000;
  constexpr int kSmtBatch = 1024;
  std::map<Hash256, Hash256> entries;
  for (int i = 0; i < kSmtBatch; ++i) entries[KeyOf(i)] = ValOf(i + 777);
  auto build_smt = [&] {
    mht::SparseMerkleTree smt;
    std::map<Hash256, Hash256> base;
    for (int i = 0; i < kSmtBase; ++i) base[KeyOf(i)] = ValOf(i);
    smt.UpdateBatch(base);
    return smt;
  };
  mht::SparseMerkleTree smt_a = build_smt();
  mht::SparseMerkleTree smt_b = build_smt();
  auto [smt_per_key_ns, smt_batch_ns] = MinNsPerCallAb(
      [&] {
        for (const auto& [key, vh] : entries) smt_a.Update(key, vh);
      },
      [&] { smt_b.UpdateBatch(entries); },
      /*reps=*/4, /*min_ms=*/150.0);
  if (smt_a.Root() != smt_b.Root()) {
    std::fprintf(stderr, "FATAL: batched SMT root diverges from per-key\n");
    return 1;
  }
  double smt_speedup = smt_per_key_ns / smt_batch_ns;
  std::printf("SMT update (%d keys into %d): per-key %.2f ms, UpdateBatch "
              "%.2f ms -> %.2fx\n",
              kSmtBatch, kSmtBase, smt_per_key_ns / 1e6, smt_batch_ns / 1e6,
              smt_speedup);

  // --- SMT proof at a certify block's scale: 161 covered keys (a third of
  // them new) in a ~2,100-key state; the enclave recomputes the root twice.
  constexpr int kProofBase = 2100;
  constexpr int kProofKeys = 161;
  mht::SparseMerkleTree proof_smt;
  for (int i = 0; i < kProofBase; ++i) proof_smt.Update(KeyOf(i), ValOf(i));
  std::vector<Hash256> covered;
  std::map<Hash256, Hash256> covered_leaves;
  for (int i = 0; i < kProofKeys; ++i) {
    const int k = i % 3 == 0 ? kProofBase + i : i * 13;
    covered.push_back(KeyOf(k));
    covered_leaves[KeyOf(k)] = proof_smt.Get(KeyOf(k));
  }
  mht::SmtMultiProof smt_proof;
  double smt_prove_ns = MinNsPerCall([&] { smt_proof = proof_smt.ProveKeys(covered); });
  double smt_root_ns = MinNsPerCall([&] {
    if (mht::SparseMerkleTree::ComputeRootFromProof(smt_proof, covered_leaves) !=
        proof_smt.Root()) {
      std::abort();
    }
  });
  std::printf("SMT proof (%d keys in %d): ProveKeys %.1f us (%zu subtrees, "
              "%zu leaves), ComputeRootFromProof %.1f us\n",
              kProofKeys, kProofBase, smt_prove_ns / 1e3,
              smt_proof.siblings.size(), smt_proof.leaves.size(),
              smt_root_ns / 1e3);

  // --- MB-tree builds: many tiny trees (a HistoricalIndex keeps one per
  // account) and one large tree; the first shows per-tree fixed cost.
  constexpr int kSmallTrees = 500;
  constexpr int kSmallEntries = 8;
  constexpr int kLargeEntries = 4096;
  const Bytes mb_value = StrBytes("value");
  double mb_small_ns = MinNsPerCall([&] {
    std::vector<mht::MbTree> trees(kSmallTrees);
    for (mht::MbTree& t : trees) {
      for (int k = 1; k <= kSmallEntries; ++k) t.Insert(k, mb_value);
      if (t.Root().IsZero()) std::abort();
    }
  });
  double mb_large_ns = MinNsPerCall([&] {
    mht::MbTree t;
    for (int k = 1; k <= kLargeEntries; ++k) t.Insert(k, mb_value);
    if (t.Root().IsZero()) std::abort();
  });
  std::printf("MB-tree build: %d trees x %d entries %.2f ms; 1 tree x %d "
              "entries %.2f ms\n",
              kSmallTrees, kSmallEntries, mb_small_ns / 1e6, kLargeEntries,
              mb_large_ns / 1e6);

  // --- a block's tx signatures: per-tx loop vs VerifyTxSignatures -------
  // 100 txs from 100 distinct senders (the certify workload's block size):
  // no key terms merge, so one VerifyBatch saves only through its shared
  // doublings; the rest of the gain is the spreading of chunks over the pool.
  constexpr int kBlockTxs = 100;
  std::vector<chain::Transaction> block_txs;
  for (int i = 0; i < kBlockTxs; ++i) {
    block_txs.push_back(chain::Transaction::Create(
        crypto::SecretKey::FromSeed(StrBytes(Numbered("sender", i))),
        0, 1, {1, static_cast<std::uint64_t>(i)}));
  }
  auto [txsig_loop_ns, txsig_batched_ns] = MinNsPerCallAb(
      [&] {
        for (const chain::Transaction& tx : block_txs) {
          if (!tx.VerifySignature()) std::abort();
        }
      },
      [&] {
        if (!chain::VerifyTxSignatures(block_txs)) std::abort();
      },
      /*reps=*/3, /*min_ms=*/150.0);
  double txsig_speedup = txsig_loop_ns / txsig_batched_ns;
  std::printf("Block tx signatures (%d txs, %d senders, %zu pool workers): "
              "per-tx %.2f ms, VerifyTxSignatures %.2f ms -> %.2fx\n",
              kBlockTxs, kBlockTxs, common::ThreadPool::Shared().WorkerCount(),
              txsig_loop_ns / 1e6,
              txsig_batched_ns / 1e6, txsig_speedup);

  // --- secp256k1: single vs batched verification -----------------------
  constexpr int kSigners = 4;   // an announcement flood from few validators
  constexpr int kSigs = 32;
  std::vector<crypto::SecretKey> sks;
  for (int i = 0; i < kSigners; ++i) {
    sks.push_back(crypto::SecretKey::FromSeed(StrBytes(Numbered("signer", i))));
  }
  std::vector<crypto::PublicKey> pks;
  std::vector<Hash256> digests;
  std::vector<crypto::Signature> sigs;
  for (int i = 0; i < kSigs; ++i) {
    const crypto::SecretKey& sk = sks[i % kSigners];
    Hash256 d = crypto::Sha256::Digest(StrBytes(Numbered("announce", i)));
    pks.push_back(sk.Public());
    digests.push_back(d);
    sigs.push_back(sk.Sign(d));
  }
  std::vector<crypto::VerifyJob> vjobs(kSigs);
  for (int i = 0; i < kSigs; ++i) vjobs[i] = {&pks[i], &digests[i], &sigs[i]};
  auto [single_ns, vbatch_ns] = MinNsPerCallAb(
      [&] {
        for (int i = 0; i < kSigs; ++i) {
          if (!crypto::Verify(pks[i], digests[i], sigs[i])) std::abort();
        }
      },
      [&] {
        auto ok = crypto::VerifyBatch(vjobs.data(), kSigs);
        for (bool b : ok) {
          if (!b) std::abort();
        }
      },
      /*reps=*/3, /*min_ms=*/150.0);
  double verify_speedup = single_ns / vbatch_ns;
  std::printf("Schnorr verify (%d sigs, %d signers): single %.0f us/sig, "
              "batched %.0f us/sig -> %.2fx\n",
              kSigs, kSigners, single_ns / kSigs / 1e3, vbatch_ns / kSigs / 1e3,
              verify_speedup);

  // --- legacy constants kept for regression tracking -------------------
  auto sk = crypto::SecretKey::FromSeed(StrBytes("bench"));
  Hash256 digest = crypto::Sha256::Digest(StrBytes("message"));
  double sign_ns = NsPerCall([&] { sk.Sign(digest); }, 300.0);
  sgxsim::Enclave enclave("bench", "1.0");
  double ecall_ns = NsPerCall([&] { enclave.Ecall(64, [] { return 1; }); });
  std::printf("Schnorr sign: %.0f us;  Ecall dispatch: %.0f ns\n", sign_ns / 1e3,
              ecall_ns);

  if (!json_path.empty()) {
    std::vector<std::string> backend_rows;
    for (const BackendRow& b : backends) {
      JsonObject o;
      o.Put("backend", b.name)
          .Put("supported", b.supported)
          .Put("tree_mhash_per_s", b.tree_mhash_s)
          .Put("tree_mb_per_s", b.tree_mb_s)
          .Put("bulk_mb_per_s", b.bulk_mb_s);
      backend_rows.push_back(o.Str());
    }
    JsonObject doc;
    doc.Put("bench", "bench_primitives")
        .PutRaw("meta", JsonRunMeta())
        .Put("stream_mhash_per_s", stream_mhash)
        .PutRaw("sha_backends", JsonArray(backend_rows))
        .Put("tree_hash_speedup", tree_speedup)
        .Put("tree_hash_pernode_ns", pernode_ns / kPairs)
        .Put("tree_hash_batched_ns", batch_ns / kPairs)
        .Put("merkle_build_speedup", merkle_speedup)
        .Put("smt_update_batch_speedup", smt_speedup)
        .Put("smt_per_key_ms", smt_per_key_ns / 1e6)
        .Put("smt_batch_ms", smt_batch_ns / 1e6)
        .Put("smt_prove_161_us", smt_prove_ns / 1e3)
        .Put("smt_root_from_proof_161_us", smt_root_ns / 1e3)
        .Put("mbtree_500x8_build_ms", mb_small_ns / 1e6)
        .Put("mbtree_4096_build_ms", mb_large_ns / 1e6)
        .Put("block_txsig_speedup", txsig_speedup)
        .Put("block_txsig_per_tx_ms", txsig_loop_ns / 1e6)
        .Put("block_txsig_batched_ms", txsig_batched_ns / 1e6)
        .Put("verify_batch_speedup", verify_speedup)
        .Put("verify_single_us_per_sig", single_ns / kSigs / 1e3)
        .Put("verify_batched_us_per_sig", vbatch_ns / kSigs / 1e3)
        .Put("schnorr_sign_us", sign_ns / 1e3)
        .Put("ecall_dispatch_ns", ecall_ns);
    WriteJsonFile(json_path, doc.Str());
  }
  return 0;
}
