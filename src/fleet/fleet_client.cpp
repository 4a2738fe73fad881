#include "fleet/fleet_client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "crypto/sha256.h"
#include "dcert/superlight.h"

namespace dcert::fleet {

/// Shared between a hedge worker thread and the caller: the worker fills its
/// result, flips `done` under the mutex, and notifies. `winner_taken` tells a
/// late-finishing loser its work was wasted (for the counter).
struct FleetClient::HedgeAttempt {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool stale = false;
  bool winner_taken = false;
  std::optional<Result<Slice>> result;
};

namespace {

/// One waker shared by both attempts of a hedged call, so the caller can
/// sleep on "either attempt newly finished" instead of polling. Workers bump
/// `completions` after publishing their result; the caller re-examines both
/// attempts whenever the count moves past what it last saw.
struct HedgeWake {
  std::mutex mu;
  std::condition_variable cv;
  int completions = 0;
};

}  // namespace

FleetClient::FleetClient(ShardMap map, BackendConnector backends,
                         FleetClientConfig config)
    : backends_(std::move(backends)),
      config_(config),
      map_(std::move(map)),
      health_(config.health ? config.health
                            : std::make_shared<FleetHealth>(
                                  config.health_policy)),
      queries_(std::make_shared<obs::Counter>()),
      subqueries_(std::make_shared<obs::Counter>()),
      verified_(std::make_shared<obs::Counter>()),
      verify_failures_(std::make_shared<obs::Counter>()),
      failovers_(std::make_shared<obs::Counter>()),
      map_refreshes_(std::make_shared<obs::Counter>()),
      cross_checks_(std::make_shared<obs::Counter>()),
      cross_check_mismatches_(std::make_shared<obs::Counter>()),
      giveups_(std::make_shared<obs::Counter>()),
      breaker_skips_(std::make_shared<obs::Counter>()),
      hedges_(std::make_shared<obs::Counter>()),
      hedge_wins_(std::make_shared<obs::Counter>()),
      hedge_wasted_(std::make_shared<obs::Counter>()),
      tip_validations_(std::make_shared<obs::Counter>()) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.Register("fleet.client.queries", queries_);
  reg.Register("fleet.client.subqueries", subqueries_);
  reg.Register("fleet.client.verified", verified_);
  reg.Register("fleet.client.verify_failures", verify_failures_);
  reg.Register("fleet.client.failovers", failovers_);
  reg.Register("fleet.client.map_refreshes", map_refreshes_);
  reg.Register("fleet.client.cross_checks", cross_checks_);
  reg.Register("fleet.client.cross_check_mismatches", cross_check_mismatches_);
  reg.Register("fleet.client.giveups", giveups_);
  reg.Register("fleet.client.breaker_skips", breaker_skips_);
  reg.Register("fleet.client.hedges", hedges_);
  reg.Register("fleet.client.hedge_wins", hedge_wins_);
  reg.Register("fleet.client.hedge_wasted", hedge_wasted_);
  reg.Register("fleet.client.tip_validations", tip_validations_);
}

FleetClient::~FleetClient() { ReapHedges(/*join_all=*/true); }

void FleetClient::ReapHedges(bool join_all) {
  std::vector<std::pair<std::thread, std::shared_ptr<HedgeAttempt>>> joinable;
  {
    std::lock_guard<std::mutex> lk(hedge_mu_);
    for (auto it = hedge_reap_.begin(); it != hedge_reap_.end();) {
      bool done;
      {
        std::lock_guard<std::mutex> slk(it->second->mu);
        done = it->second->done;
      }
      if (done || join_all) {
        joinable.push_back(std::move(*it));
        it = hedge_reap_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& [t, state] : joinable) {
    if (t.joinable()) t.join();
  }
}

ShardMap FleetClient::Map() const {
  std::shared_lock<std::shared_mutex> lk(map_mu_);
  return map_;
}

std::unique_ptr<svc::SpClient> FleetClient::Borrow(std::uint32_t shard,
                                                   std::uint32_t replica) {
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    auto it = pool_.find({shard, replica});
    if (it != pool_.end() && !it->second.empty()) {
      auto client = std::move(it->second.back());
      it->second.pop_back();
      return client;
    }
  }
  // Decorrelate backoff jitter across backends so a fleet-wide incident does
  // not retry in lockstep.
  svc::RetryPolicy policy = config_.retry;
  policy.jitter_seed ^= std::uint64_t{shard} * 1009 + replica * 101 + 1;
  return std::make_unique<svc::SpClient>(backends_(shard, replica), policy);
}

void FleetClient::Return(std::uint32_t shard, std::uint32_t replica,
                         std::unique_ptr<svc::SpClient> client) {
  std::lock_guard<std::mutex> lk(pool_mu_);
  pool_[{shard, replica}].push_back(std::move(client));
}

Status FleetClient::ValidateTip(std::uint32_t shard, const svc::TipInfo& tip,
                                const Hash256& key,
                                const core::BlockCertificate** offending) {
  {
    std::lock_guard<std::mutex> lk(tip_memo_mu_);
    const auto it = tip_memo_.find(shard);
    if (it != tip_memo_.end() &&
        std::find(it->second.keys.begin(), it->second.keys.end(), key) !=
            it->second.keys.end()) {
      return Status::Ok();
    }
  }

  // Exactly what a standalone superlight client checks: the block cert signs
  // the header, the index cert binds the digest, both from the pinned
  // enclave.
  tip_validations_->Add(1);
  core::SuperlightClient verifier(config_.expected_measurement);
  if (Status st = verifier.ValidateAndAccept(tip.header, tip.block_cert);
      !st) {
    *offending = &tip.block_cert;
    return st.WithContext("fleet: block cert");
  }
  if (Status st = verifier.AcceptIndexCert(tip.header, tip.index_cert,
                                           tip.index_digest, "historical");
      !st) {
    *offending = &tip.index_cert;
    return st.WithContext("fleet: index cert");
  }

  std::lock_guard<std::mutex> lk(tip_memo_mu_);
  TipRing& ring = tip_memo_[shard];
  if (std::find(ring.keys.begin(), ring.keys.end(), key) != ring.keys.end()) {
    return Status::Ok();  // a concurrent subquery validated it too
  }
  if (ring.keys.size() < kTipMemoSlots) {
    ring.keys.push_back(key);
  } else {
    ring.keys[ring.next] = key;
    ring.next = (ring.next + 1) % kTipMemoSlots;
  }
  return Status::Ok();
}

Result<FleetClient::Slice> FleetClient::QueryReplica(
    const ShardMap& map, svc::Op op, const ShardMap::SubQuery& sub,
    std::uint64_t account, std::uint32_t replica, bool* stale) {
  using R = Result<Slice>;
  const auto started = std::chrono::steady_clock::now();
  auto client = Borrow(sub.shard_id, replica);
  // Whatever happens below, the client goes back to the pool: SpClient owns
  // reconnection, so even after a transport fault it is reusable.
  struct Returner {
    FleetClient* self;
    std::uint32_t shard, replica;
    std::unique_ptr<svc::SpClient>& client;
    ~Returner() { self->Return(shard, replica, std::move(client)); }
  } returner{this, sub.shard_id, replica, client};

  // A reply that fails cryptographic verification is EVIDENCE of misbehavior
  // (not bad luck): record the query, a digest of what was served, and the
  // certificate the replica presented, then quarantine it fleet-wide.
  auto misbehave = [&](const Status& verdict,
                       const query::HistoricalQueryProof& proof,
                       const core::BlockCertificate* cert) -> R {
    verify_failures_->Add(1);
    MisbehaviorEvidence ev;
    ev.map_version = map.Version();
    ev.shard_id = sub.shard_id;
    ev.replica = replica;
    ev.op = static_cast<std::uint8_t>(op);
    ev.account = account;
    ev.from_height = sub.from_height;
    ev.to_height = sub.to_height;
    ev.reply_digest = crypto::Sha256::Digest(proof.Serialize());
    if (cert != nullptr) ev.offending_cert = cert->Serialize();
    ev.verdict = verdict.message();
    health_->ReportMisbehavior(ev);
    return R(verdict);
  };
  // Benign transport-level failure (or kBusy exhaustion): feed the breaker.
  // kStaleShard is the MAP being stale, not the replica failing — no report.
  auto benign = [&](const Status& st) -> R {
    if (client->LastReplyStaleShard()) {
      *stale = true;
    } else {
      health_->ReportFailure(sub.shard_id, replica);
    }
    return R(st);
  };

  auto reply = op == svc::Op::kHistorical
                   ? client->HistoricalSharded(map.Version(), sub.shard_id,
                                               account, sub.from_height,
                                               sub.to_height)
                   : client->AggregateSharded(map.Version(), sub.shard_id,
                                              account, sub.from_height,
                                              sub.to_height);
  if (!reply.ok()) return benign(reply.status());
  const svc::TipInfo& tip = reply.value().tip;
  const Hash256& tip_key = reply.value().tip_key;
  const query::HistoricalQueryProof& proof = reply.value().proof;

  // The reply carries the tip its proof was built at: certificates first
  // (once per distinct tip), then the proof against that tip's certified
  // digest on every subquery. A certified tip older than one seen before is
  // a replica behind on announcements — stale, not evidence.
  const core::BlockCertificate* offending = nullptr;
  if (Status st = ValidateTip(sub.shard_id, tip, tip_key, &offending); !st) {
    return misbehave(st, proof, offending);
  }
  Slice out;
  out.tip_height = tip.header.height;
  if (op == svc::Op::kHistorical) {
    auto versions = query::HistoricalIndex::VerifyQuery(
        tip.index_digest, account, sub.from_height, sub.to_height, proof);
    if (!versions.ok()) {
      return misbehave(versions.status().WithContext("fleet: query proof"),
                       proof, &tip.block_cert);
    }
    out.versions = std::move(versions.value());
  } else {
    auto agg = query::HistoricalIndex::VerifyAggregateQuery(
        tip.index_digest, account, sub.from_height, sub.to_height, proof);
    if (!agg.ok()) {
      return misbehave(agg.status().WithContext("fleet: aggregate proof"),
                       proof, &tip.block_cert);
    }
    out.aggregate = agg.value();
  }
  verified_->Add(1);
  health_->ReportSuccess(
      sub.shard_id, replica,
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - started)
              .count()));
  return out;
}

Result<FleetClient::Slice> FleetClient::QueryReplicaHedged(
    const ShardMap& map, svc::Op op, const ShardMap::SubQuery& sub,
    std::uint64_t account, std::uint32_t primary, std::uint32_t secondary,
    bool* stale, bool* used_secondary) {
  using R = Result<Slice>;
  *used_secondary = false;
  ReapHedges(/*join_all=*/false);

  // Everything a worker touches is either captured by value or owned by
  // `this` (pool, counters, health) — and the destructor joins stragglers
  // before any of that dies.
  auto wake = std::make_shared<HedgeWake>();
  auto spawn = [this, map, op, sub, account, wake](std::uint32_t replica)
      -> std::pair<std::thread, std::shared_ptr<HedgeAttempt>> {
    auto state = std::make_shared<HedgeAttempt>();
    std::thread t([this, map, op, sub, account, replica, state, wake] {
      bool attempt_stale = false;
      auto result = QueryReplica(map, op, sub, account, replica,
                                 &attempt_stale);
      {
        std::lock_guard<std::mutex> lk(state->mu);
        state->stale = attempt_stale;
        state->result = std::move(result);
        state->done = true;
        if (state->winner_taken) hedge_wasted_->Add(1);
        state->cv.notify_all();
      }
      std::lock_guard<std::mutex> wlk(wake->mu);
      ++wake->completions;
      wake->cv.notify_all();
    });
    return {std::move(t), std::move(state)};
  };

  auto [t1, s1] = spawn(primary);
  const auto delay = std::chrono::microseconds(health_->HedgeDelayUs(
      config_.hedge_min_delay_us, config_.hedge_max_delay_us));
  bool primary_done;
  {
    std::unique_lock<std::mutex> lk(s1->mu);
    primary_done = s1->cv.wait_for(lk, delay, [&] { return s1->done; });
  }
  // Admit the secondary only now, immediately before actually querying it —
  // admitting it up front would consume a half-open probe slot for a request
  // that may never happen (a fast primary), wedging that backend's breaker.
  if (primary_done || !health_->AllowRequest(sub.shard_id, secondary)) {
    if (!primary_done) {
      // Secondary inadmissible (e.g. its probe slot was just taken): no
      // hedge, just ride the primary out.
      std::unique_lock<std::mutex> lk(s1->mu);
      s1->cv.wait(lk, [&] { return s1->done; });
    }
    t1.join();
    if (s1->stale) *stale = true;
    return std::move(*s1->result);
  }

  // Primary is past the adaptive delay: hedge on the secondary and take the
  // first finisher (both results are verified before they count, so "first"
  // never trades latency for trust).
  hedges_->Add(1);
  *used_secondary = true;
  auto [t2, s2] = spawn(secondary);
  // First VERIFIED reply wins; a finished failure never preempts the other
  // attempt while it is still running (a failed primary must not discard a
  // secondary about to deliver the answer). Both failed -> primary's error.
  int winner = -1;
  while (winner < 0) {
    int seen;
    {
      std::lock_guard<std::mutex> wlk(wake->mu);
      seen = wake->completions;
    }
    bool done0, done1, ok0 = false, ok1 = false;
    {
      std::lock_guard<std::mutex> lk(s1->mu);
      done0 = s1->done;
      if (done0) ok0 = s1->result->ok();
    }
    {
      std::lock_guard<std::mutex> lk(s2->mu);
      done1 = s2->done;
      if (done1) ok1 = s2->result->ok();
    }
    if (done0 && ok0) {
      winner = 0;
    } else if (done1 && ok1) {
      winner = 1;
    } else if (done0 && done1) {
      winner = 0;
    } else {
      // Sleep until either attempt newly completes. A completion that lands
      // between the snapshot above and this wait bumps `completions` past
      // `seen`, so the predicate is already true and we never miss it.
      std::unique_lock<std::mutex> wlk(wake->mu);
      wake->cv.wait(wlk, [&] { return wake->completions != seen; });
    }
  }
  if (winner == 1) hedge_wins_->Add(1);
  // Mark the loser's state so its late completion counts as wasted work,
  // then hand the thread(s) to the reaper: the loser must not delay the
  // winner's reply.
  std::thread threads[2] = {std::move(t1), std::move(t2)};
  std::shared_ptr<HedgeAttempt> shared[2] = {s1, s2};
  R out = R(Status::Error("fleet: hedge lost state"));
  for (int i = 0; i < 2; ++i) {
    std::unique_lock<std::mutex> lk(shared[i]->mu);
    if (i == winner) {
      if (shared[i]->stale) *stale = true;
      out = std::move(*shared[i]->result);
      lk.unlock();
      threads[i].join();
    } else if (shared[i]->done) {
      lk.unlock();
      threads[i].join();
    } else {
      shared[i]->winner_taken = true;
      lk.unlock();
      std::lock_guard<std::mutex> rlk(hedge_mu_);
      hedge_reap_.emplace_back(std::move(threads[i]), shared[i]);
    }
  }
  return out;
}

Result<FleetClient::Slice> FleetClient::QueryShard(
    const ShardMap& map, svc::Op op, const ShardMap::SubQuery& sub,
    std::uint64_t account, bool* stale) {
  using R = Result<Slice>;
  const std::uint32_t replicas = map.Replicas();
  std::uint32_t start;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    start = static_cast<std::uint32_t>(rr_++ % replicas);
  }
  // Route only to replicas whose breaker looks admissible (non-mutating
  // Routable check — the actual probe-consuming AllowRequest happens
  // immediately before each attempt, so candidates that are never queried
  // cannot strand a half-open probe slot). If every breaker is open, fall
  // back to trying them anyway — an open breaker is advisory backoff, and
  // total unavailability is worse than a doomed attempt. Quarantine is NEVER
  // overridden: a replica with misbehavior evidence gets no traffic until
  // operator release, even if it is the last one standing.
  bool breakers_bypassed = false;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < replicas; ++i) {
    const std::uint32_t replica = (start + i) % replicas;
    if (health_->Routable(sub.shard_id, replica)) {
      candidates.push_back(replica);
    } else {
      breaker_skips_->Add(1);
    }
  }
  if (candidates.empty()) {
    breakers_bypassed = true;
    for (std::uint32_t i = 0; i < replicas; ++i) {
      const std::uint32_t replica = (start + i) % replicas;
      if (!health_->Quarantined(replica)) candidates.push_back(replica);
    }
    if (candidates.empty()) {
      return R::Error("fleet: every replica of shard " +
                      std::to_string(sub.shard_id) +
                      " is quarantined for misbehavior; operator release "
                      "required");
    }
  }
  // Admission gate used at attempt time (and for cross-check partners): in
  // bypass mode breakers are ignored but quarantine still holds.
  auto admit = [&](std::uint32_t replica) {
    return breakers_bypassed ? !health_->Quarantined(replica)
                             : health_->AllowRequest(sub.shard_id, replica);
  };
  Status last = Status::Error("fleet: no replicas configured");
  bool hedge_tried_secondary = false;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::uint32_t replica = candidates[i];
    if (i == 1 && hedge_tried_secondary) continue;  // hedge already tried it
    if (!admit(replica)) {
      // State moved between the Routable scan and now (another thread took
      // the probe slot, or new evidence quarantined the replica): skip.
      breaker_skips_->Add(1);
      continue;
    }
    // Hedge only the first attempt (failovers are already the slow path) and
    // only when a distinct second replica exists; the secondary's own
    // admission happens inside QueryReplicaHedged at hedge-fire time.
    const bool hedge = config_.hedge && !breakers_bypassed && i == 0 &&
                       candidates.size() > 1;
    auto slice =
        hedge ? QueryReplicaHedged(map, op, sub, account, replica,
                                   candidates[1], stale, &hedge_tried_secondary)
              : QueryReplica(map, op, sub, account, replica, stale);
    if (*stale) return slice;  // caller refreshes the map and re-splits
    if (!slice.ok()) {
      last = slice.status();
      if (i + 1 < candidates.size()) failovers_->Add(1);
      continue;
    }
    if (config_.cross_check && replicas > 1) {
      // Paranoid mode: the same subquery must verify identically on a second
      // replica. Both results passed cryptographic verification already, so
      // a mismatch means the replicas serve divergent certified views (e.g.
      // one lags the announcement stream) — surface it, don't pick one.
      cross_checks_->Add(1);
      // The partner comes from the admitted candidate list (never a
      // quarantined or breaker-blocked replica); no admissible partner fails
      // the cross-check rather than silently skipping it.
      std::optional<std::uint32_t> other;
      for (const std::uint32_t cand : candidates) {
        if (cand != replica && admit(cand)) {
          other = cand;
          break;
        }
      }
      if (!other.has_value()) {
        return R::Error(
            "fleet: cross-check impossible: no admissible second replica for "
            "shard " +
            std::to_string(sub.shard_id));
      }
      auto check = QueryReplica(map, op, sub, account, *other, stale);
      if (*stale) return check;
      if (!check.ok()) {
        return R(check.status().WithContext("fleet: cross-check replica"));
      }
      const bool same =
          op == svc::Op::kHistorical
              ? check.value().versions == slice.value().versions
              : (check.value().aggregate.count ==
                     slice.value().aggregate.count &&
                 check.value().aggregate.sum == slice.value().aggregate.sum);
      if (!same) {
        cross_check_mismatches_->Add(1);
        return R::Error(
            "fleet: cross-check mismatch between replicas " +
            std::to_string(replica) + " and " + std::to_string(*other) +
            " of shard " + std::to_string(sub.shard_id) + " (tips " +
            std::to_string(slice.value().tip_height) + " vs " +
            std::to_string(check.value().tip_height) + ")");
      }
    }
    return slice;
  }
  return R(last);
}

Result<FleetClient::Slice> FleetClient::Run(svc::Op op, std::uint64_t account,
                                            std::uint64_t from_height,
                                            std::uint64_t to_height) {
  using R = Result<Slice>;
  queries_->Add(1);
  if (from_height > to_height) {
    giveups_->Add(1);
    return R::Error("fleet: empty query window");
  }
  for (int refresh = 0;; ++refresh) {
    const ShardMap map = Map();
    const auto subs = map.Split(account, from_height, to_height);
    Slice merged;
    bool stale = false;
    Status failure = Status::Ok();
    for (const auto& sub : subs) {
      subqueries_->Add(1);
      auto piece = QueryShard(map, op, sub, account, &stale);
      if (stale) break;
      if (!piece.ok()) {
        failure = piece.status();
        break;
      }
      // Bands are disjoint and ascending, so concatenation preserves
      // block-height order without a sort.
      merged.versions.insert(merged.versions.end(),
                             piece.value().versions.begin(),
                             piece.value().versions.end());
      merged.aggregate += piece.value().aggregate;
      merged.tip_height = std::max(merged.tip_height,
                                   piece.value().tip_height);
    }
    if (stale) {
      if (refresh >= config_.max_map_refreshes) {
        giveups_->Add(1);
        return R::Error("fleet: shard map still stale after " +
                        std::to_string(refresh) + " refreshes");
      }
      if (Status st = RefreshMap(); !st) {
        giveups_->Add(1);
        return R(st.WithContext("fleet: map refresh"));
      }
      continue;
    }
    if (!failure) {
      giveups_->Add(1);
      return R(failure);
    }
    return merged;
  }
}

Result<std::vector<query::HistoricalVersion>> FleetClient::Historical(
    std::uint64_t account, std::uint64_t from_height,
    std::uint64_t to_height) {
  auto slice = Run(svc::Op::kHistorical, account, from_height, to_height);
  if (!slice.ok()) {
    return Result<std::vector<query::HistoricalVersion>>(slice.status());
  }
  return std::move(slice.value().versions);
}

Result<mht::MbAggregate> FleetClient::Aggregate(std::uint64_t account,
                                                std::uint64_t from_height,
                                                std::uint64_t to_height) {
  auto slice = Run(svc::Op::kAggregate, account, from_height, to_height);
  if (!slice.ok()) return Result<mht::MbAggregate>(slice.status());
  return slice.value().aggregate;
}

std::vector<Result<std::vector<query::HistoricalVersion>>>
FleetClient::HistoricalMany(const std::vector<QuerySpec>& specs) {
  using Item = Result<std::vector<query::HistoricalVersion>>;
  std::vector<Item> results(specs.size(), Item(Status::Error("not run")));
  if (specs.empty()) return results;
  const std::size_t workers =
      std::min(std::max<std::size_t>(1, config_.fanout_threads), specs.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= specs.size()) break;
      results[i] = Historical(specs[i].account, specs[i].from_height,
                              specs[i].to_height);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) threads.emplace_back(work);
  for (auto& t : threads) t.join();
  return results;
}

Status FleetClient::RefreshMap() {
  map_refreshes_->Add(1);
  const ShardMap cur = Map();
  Status last = Status::Error("fleet: no backend answered a map fetch");
  for (std::uint32_t shard = 0; shard < cur.TotalShards(); ++shard) {
    for (std::uint32_t replica = 0; replica < cur.Replicas(); ++replica) {
      auto client = Borrow(shard, replica);
      auto bytes = client->FetchShardMap();
      Return(shard, replica, std::move(client));
      if (!bytes.ok()) {
        last = bytes.status();
        continue;
      }
      auto fresh = ShardMap::Deserialize(bytes.value());
      if (!fresh.ok()) {
        last = fresh.status();
        continue;
      }
      std::unique_lock<std::shared_mutex> lk(map_mu_);
      if (fresh.value().Version() >= map_.Version()) {
        map_ = std::move(fresh.value());
      }
      return Status::Ok();
    }
  }
  return last;
}

FleetClientStats FleetClient::Stats() const {
  FleetClientStats s;
  s.queries = queries_->Value();
  s.subqueries = subqueries_->Value();
  s.verified = verified_->Value();
  s.verify_failures = verify_failures_->Value();
  s.failovers = failovers_->Value();
  s.map_refreshes = map_refreshes_->Value();
  s.cross_checks = cross_checks_->Value();
  s.cross_check_mismatches = cross_check_mismatches_->Value();
  s.giveups = giveups_->Value();
  s.breaker_skips = breaker_skips_->Value();
  s.hedges = hedges_->Value();
  s.hedge_wins = hedge_wins_->Value();
  s.hedge_wasted = hedge_wasted_->Value();
  s.tip_validations = tip_validations_->Value();
  return s;
}

}  // namespace dcert::fleet
