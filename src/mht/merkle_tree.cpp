#include "mht/merkle_tree.h"

#include "mht/node_hash.h"

namespace dcert::mht {

Hash256 MerkleTree::LeafHash(const Hash256& item_digest) {
  return TaggedDigest(NodeTag::kMerkleLeaf, item_digest.View());
}

MerkleTree::MerkleTree(std::vector<Hash256> leaf_hashes)
    : leaf_count_(leaf_hashes.size()) {
  if (leaf_hashes.empty()) {
    root_ = TaggedDigest(NodeTag::kMerkleInternal, {});
    return;
  }
  // Every level is hashed in one multi-buffer dispatch: all leaf tags first,
  // then all sibling pairs of each internal level.
  std::vector<Hash256> level(leaf_hashes.size());
  {
    std::vector<NodeLeafJob> jobs(leaf_hashes.size());
    for (std::size_t i = 0; i < leaf_hashes.size(); ++i) {
      jobs[i] = {&leaf_hashes[i], &level[i]};
    }
    TaggedDigestMany32(NodeTag::kMerkleLeaf, jobs.data(), jobs.size());
  }
  std::vector<NodePairJob> jobs;
  while (level.size() > 1) {
    std::vector<Hash256> next((level.size() + 1) / 2);
    jobs.clear();
    jobs.reserve(level.size() / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      jobs.push_back({&level[i], &level[i + 1], &next[i / 2]});
    }
    TaggedDigest2Many(NodeTag::kMerkleInternal, jobs.data(), jobs.size());
    if (level.size() % 2 == 1) next.back() = level.back();  // promote odd node
    level = std::move(next);
  }
  root_ = level.front();
}

Hash256 MerkleTree::ComputeRoot(const std::vector<Hash256>& leaf_hashes) {
  return MerkleTree(leaf_hashes).Root();
}

}  // namespace dcert::mht
