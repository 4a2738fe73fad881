#include "svc/response_cache.h"

#include <algorithm>

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace dcert::svc {

ResponseCache::ResponseCache(std::size_t shards, std::size_t capacity_bytes)
    : shard_budget_(std::max<std::size_t>(
          1, capacity_bytes / std::max<std::size_t>(1, shards))),
      hits_(std::make_shared<obs::Counter>()),
      misses_(std::make_shared<obs::Counter>()),
      evictions_(std::make_shared<obs::Counter>()),
      invalidations_(std::make_shared<obs::Counter>()),
      invalidations_skipped_(std::make_shared<obs::Counter>()),
      bytes_(std::make_shared<obs::Gauge>()) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& reg = obs::MetricsRegistry::Global();
  reg.Register("svc.cache.hits", hits_);
  reg.Register("svc.cache.misses", misses_);
  reg.Register("svc.cache.evictions", evictions_);
  reg.Register("svc.cache.invalidations", invalidations_);
  reg.Register("svc.cache.invalidations_skipped", invalidations_skipped_);
  reg.Register("svc.cache.bytes", bytes_);
}

Hash256 ResponseCache::Key(Op op, std::uint64_t account,
                           std::uint64_t from_height, std::uint64_t to_height,
                           std::uint64_t tip_height) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(op));
  enc.U64(account);
  enc.U64(from_height);
  enc.U64(to_height);
  enc.U64(tip_height);
  return crypto::Sha256::Digest(enc.bytes());
}

ResponseCache::Shard& ResponseCache::ShardFor(const Hash256& key) {
  return *shards_[Hash256Hasher{}(key) % shards_.size()];
}

std::optional<Bytes> ResponseCache::Lookup(const Hash256& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_->Add(1);
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->Add(1);
  return it->second->second;
}

void ResponseCache::Insert(const Hash256& key, Bytes payload) {
  const std::size_t size = Charge(payload);
  if (size > shard_budget_) return;  // would evict the whole shard
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {  // racing miss computed the same payload
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(payload));
  shard.map[key] = shard.lru.begin();
  shard.bytes += size;
  bytes_->Add(static_cast<std::int64_t>(size));
  // The front entry fits the budget on its own, so this stops before it.
  while (shard.bytes > shard_budget_) {
    const std::size_t victim = Charge(shard.lru.back().second);
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    shard.bytes -= victim;
    bytes_->Sub(static_cast<std::int64_t>(victim));
    evictions_->Add(1);
  }
}

void ResponseCache::InvalidateAll() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    bytes_->Sub(static_cast<std::int64_t>(shard->bytes));
    shard->bytes = 0;
  }
  invalidations_->Add(1);
}

void ResponseCache::NoteInvalidationSkipped() {
  invalidations_skipped_->Add(1);
}

CacheStats ResponseCache::Stats() const {
  CacheStats s;
  s.hits = hits_->Value();
  s.misses = misses_->Value();
  s.evictions = evictions_->Value();
  s.invalidations = invalidations_->Value();
  s.invalidations_skipped = invalidations_skipped_->Value();
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    s.bytes += shard->bytes;
  }
  return s;
}

}  // namespace dcert::svc
