#include "svc/sp_client.h"

#include <algorithm>
#include <optional>
#include <thread>

namespace dcert::svc {

namespace {

using Ms = std::chrono::milliseconds;
using Clock = std::chrono::steady_clock;

/// Process-wide mirrors of retry-path activity across every SpClient (the
/// per-instance SpClientStats stays the exact view tests assert on).
struct ClientMetrics {
  std::shared_ptr<obs::Counter> attempts;
  std::shared_ptr<obs::Counter> retries;
  std::shared_ptr<obs::Counter> reconnects;
  std::shared_ptr<obs::Counter> timeouts;
  std::shared_ptr<obs::Counter> transport_errors;
  std::shared_ptr<obs::Counter> busy_replies;
  std::shared_ptr<obs::Counter> stale_shard_replies;
  std::shared_ptr<obs::Counter> giveups;

  static ClientMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ClientMetrics* m = new ClientMetrics{
        reg.GetCounter("svc.client.attempts"),
        reg.GetCounter("svc.client.retries"),
        reg.GetCounter("svc.client.reconnects"),
        reg.GetCounter("svc.client.timeouts"),
        reg.GetCounter("svc.client.transport_errors"),
        reg.GetCounter("svc.client.busy_replies"),
        reg.GetCounter("svc.client.stale_shard_replies"),
        reg.GetCounter("svc.client.giveups")};
    return *m;
  }
};

}  // namespace

Status SpClient::EnsureConnected() {
  if (conn_) return Status::Ok();
  if (!connector_) {
    return ConnectionError("sp client: connection broken and no reconnect path");
  }
  auto dialed = connector_();
  if (!dialed.ok()) return dialed.status();
  conn_ = std::move(dialed.value());
  if (ever_connected_) {  // the first dial is not a *re*dial
    ++stats_.reconnects;
    ClientMetrics::Get().reconnects->Add(1);
  }
  ever_connected_ = true;
  return Status::Ok();
}

Result<Bytes> SpClient::Roundtrip(const Bytes& request,
                                  const BodyDecoder& decode_body) {
  ++stats_.calls;
  const int max_attempts = std::max(1, policy_.max_attempts);
  const auto budget_end = Clock::now() + policy_.retry_budget;
  Ms backoff = policy_.initial_backoff;
  Status last_error = Status::Error("sp client: no attempts made");

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Bounded exponential backoff, jittered into [backoff/2, backoff] so
      // concurrent clients retrying the same incident spread out.
      const auto base = std::max<std::int64_t>(1, backoff.count());
      const Ms sleep(base / 2 + static_cast<std::int64_t>(jitter_rng_.NextBelow(
                                    static_cast<std::uint64_t>(base / 2 + 1))));
      if (Clock::now() + sleep >= budget_end) break;  // budget spent: give up
      std::this_thread::sleep_for(sleep);
      stats_.backoff_ms_total += static_cast<std::uint64_t>(sleep.count());
      backoff = std::min(policy_.max_backoff,
                         Ms(static_cast<std::int64_t>(
                             static_cast<double>(backoff.count()) *
                             policy_.backoff_multiplier)));
      ++stats_.retries;
      ClientMetrics::Get().retries->Add(1);
    }
    ++stats_.attempts;
    ClientMetrics::Get().attempts->Add(1);
    last_busy_ = false;
    last_stale_shard_ = false;

    if (Status st = EnsureConnected(); !st) {
      last_error = st;
      if (IsTransientTransportError(st)) {
        ++stats_.transport_errors;
        ClientMetrics::Get().transport_errors->Add(1);
        continue;  // refused/failed dial: back off and redial
      }
      break;  // no reconnect path, or a permanent dial failure
    }

    auto raw = conn_->Call(request, policy_.call_deadline);
    if (!raw.ok()) {
      last_error = raw.status();
      if (IsTimeoutError(last_error)) {
        ++stats_.timeouts;
        ClientMetrics::Get().timeouts->Add(1);
      } else {
        ++stats_.transport_errors;
        ClientMetrics::Get().transport_errors->Add(1);
      }
      if (IsTransientTransportError(last_error)) {
        conn_.reset();  // the stream may be desynced; redial next attempt
        continue;
      }
      break;  // e.g. oversized request: retrying cannot help
    }

    auto env = DecodeReplyEnvelope(raw.value());
    if (!env.ok()) {
      // Garbage from an untrusted SP or a corrupting network; the stream
      // cannot be trusted to be frame-aligned anymore, so redial.
      ++stats_.transport_errors;
      ClientMetrics::Get().transport_errors->Add(1);
      last_error = ConnectionError("sp client: undecodable reply: " +
                                   env.message());
      conn_.reset();
      continue;
    }
    if (env.value().code == Code::kBusy) {
      ++stats_.busy_replies;
      ClientMetrics::Get().busy_replies->Add(1);
      last_busy_ = true;
      last_error = Status::Error("busy: " + env.value().message);
      continue;  // the connection is fine; the server shed us — back off
    }
    if (env.value().code == Code::kStaleShard) {
      // The *map* is wrong, not the connection — blind retries against the
      // same shard cannot succeed. Fail fast; the caller refreshes its shard
      // map (LastReplyStaleShard()) and re-routes.
      ++stats_.stale_shard_replies;
      ClientMetrics::Get().stale_shard_replies->Add(1);
      last_stale_shard_ = true;
      ++stats_.giveups;
      ClientMetrics::Get().giveups->Add(1);
      return Result<Bytes>::Error("stale shard: " + env.value().message);
    }
    if (env.value().code == Code::kError) {
      return Result<Bytes>::Error("server: " + env.value().message);
    }
    if (decode_body) {
      if (Status st = decode_body(env.value().body); !st) {
        // An OK envelope with an undecodable body is a corrupted reply, not
        // a server decision: treat it like any transport fault.
        ++stats_.transport_errors;
        ClientMetrics::Get().transport_errors->Add(1);
        last_error = ConnectionError("sp client: corrupted reply body: " +
                                     st.message());
        conn_.reset();
        continue;
      }
    }
    last_busy_ = false;
    return std::move(env.value().body);
  }
  ++stats_.giveups;
  ClientMetrics::Get().giveups->Add(1);
  return Result<Bytes>(last_error);
}

Result<TipInfo> SpClient::FetchTip() {
  std::optional<HeldTip> fetched;
  auto body = Roundtrip(EncodeTipFetchRequest(), [&fetched](const Bytes& b) {
    auto decoded = DecodeTipBody(b);
    if (!decoded.ok()) return decoded.status();
    fetched = HeldTip{TipKey(b), std::move(decoded.value())};
    return Status::Ok();
  });
  if (!body.ok()) return Result<TipInfo>(body.status());
  held_tip_ = std::move(fetched);
  return held_tip_->tip;
}

Result<obs::MetricsSnapshot> SpClient::FetchStats() {
  std::optional<obs::MetricsSnapshot> snap;
  auto body = Roundtrip(EncodeStatsRequest(), [&snap](const Bytes& b) {
    auto decoded = DecodeStatsBody(b);
    if (!decoded.ok()) return decoded.status();
    snap = std::move(decoded.value());
    return Status::Ok();
  });
  if (!body.ok()) return Result<obs::MetricsSnapshot>(body.status());
  return std::move(*snap);
}

Result<HealthInfo> SpClient::FetchHealth() {
  std::optional<HealthInfo> info;
  auto body = Roundtrip(EncodeHealthRequest(), [&info](const Bytes& b) {
    auto decoded = DecodeHealthBody(b);
    if (!decoded.ok()) return decoded.status();
    info = std::move(decoded.value());
    return Status::Ok();
  });
  if (!body.ok()) return Result<HealthInfo>(body.status());
  return std::move(*info);
}

Result<Bytes> SpClient::FetchShardMap() {
  std::optional<Bytes> map;
  auto body = Roundtrip(EncodeShardMapRequest(), [&map](const Bytes& b) {
    auto decoded = DecodeShardMapBody(b);
    if (!decoded.ok()) return decoded.status();
    map = std::move(decoded.value());
    return Status::Ok();
  });
  if (!body.ok()) return Result<Bytes>(body.status());
  return std::move(*map);
}

Result<SpClient::QueryResult> SpClient::Query(
    const QueryRequest& q, const std::optional<ShardScope>& scope) {
  Bytes request = EncodeQueryRequest(
      q, held_tip_ ? std::optional<Hash256>(held_tip_->key) : std::nullopt);
  if (scope) {
    request = EncodeShardScopedRequest(scope->first, scope->second, request);
  }
  std::optional<QueryResult> out;
  auto body = Roundtrip(request, [this, &out](const Bytes& b) {
    auto decoded = DecodeQueryReply(b, held_tip_);
    if (!decoded.ok()) return decoded.status();
    out = std::move(decoded.value());
    return Status::Ok();
  });
  if (!body.ok()) return Result<QueryResult>(body.status());
  if (!held_tip_ || held_tip_->key != out->tip_key) {
    held_tip_ = HeldTip{out->tip_key, out->tip};
  }
  return std::move(*out);
}

Result<SpClient::QueryResult> SpClient::Historical(std::uint64_t account,
                                                   std::uint64_t from_height,
                                                   std::uint64_t to_height) {
  return Query({Op::kHistorical, account, from_height, to_height},
               std::nullopt);
}

Result<SpClient::QueryResult> SpClient::Aggregate(std::uint64_t account,
                                                  std::uint64_t from_height,
                                                  std::uint64_t to_height) {
  return Query({Op::kAggregate, account, from_height, to_height},
               std::nullopt);
}

Result<SpClient::QueryResult> SpClient::HistoricalSharded(
    std::uint64_t map_version, std::uint32_t shard_id, std::uint64_t account,
    std::uint64_t from_height, std::uint64_t to_height) {
  return Query({Op::kHistorical, account, from_height, to_height},
               ShardScope{map_version, shard_id});
}

Result<SpClient::QueryResult> SpClient::AggregateSharded(
    std::uint64_t map_version, std::uint32_t shard_id, std::uint64_t account,
    std::uint64_t from_height, std::uint64_t to_height) {
  return Query({Op::kAggregate, account, from_height, to_height},
               ShardScope{map_version, shard_id});
}

Result<std::uint64_t> SpClient::Announce(const AnnounceRequest& req) {
  std::optional<std::uint64_t> ack;
  auto body = Roundtrip(EncodeAnnounceRequest(req), [&ack](const Bytes& b) {
    auto decoded = DecodeAckBody(b);
    if (!decoded.ok()) return decoded.status();
    ack = decoded.value();
    return Status::Ok();
  });
  if (!body.ok()) return Result<std::uint64_t>(body.status());
  return *ack;
}

}  // namespace dcert::svc
