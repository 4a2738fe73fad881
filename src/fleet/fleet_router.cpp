#include "fleet/fleet_router.h"

#include <string>
#include <utility>

#include "svc/protocol.h"

namespace dcert::fleet {

namespace {

/// Duplicate announcements (fan-out retries, replicas catching up out of
/// band) are rejected by SpServer with this prefix; the router treats them
/// as already-applied success so fan-out stays idempotent.
bool IsStaleHeightReject(const std::string& message) {
  return message.find("announce: stale height") != std::string::npos;
}

}  // namespace

FleetRouter::FleetRouter(ShardMap map, BackendConnector backends,
                         FleetRouterConfig config)
    : map_(std::move(map)),
      backends_(std::move(backends)),
      config_(config),
      health_(config.health ? config.health
                            : std::make_shared<FleetHealth>(
                                  config.health_policy)),
      forwarded_(std::make_shared<obs::Counter>()),
      fanouts_(std::make_shared<obs::Counter>()),
      failovers_(std::make_shared<obs::Counter>()),
      shard_map_serves_(std::make_shared<obs::Counter>()),
      stale_rejects_(std::make_shared<obs::Counter>()),
      errors_(std::make_shared<obs::Counter>()) {
  replica_rr_.resize(map_.TotalShards());
  auto& reg = obs::MetricsRegistry::Global();
  reg.Register("fleet.router.forwarded", forwarded_);
  reg.Register("fleet.router.fanouts", fanouts_);
  reg.Register("fleet.router.failovers", failovers_);
  reg.Register("fleet.router.shard_map_serves", shard_map_serves_);
  reg.Register("fleet.router.stale_rejects", stale_rejects_);
  reg.Register("fleet.router.errors", errors_);
}

FleetRouter::~FleetRouter() { Shutdown(); }

Status FleetRouter::Serve(svc::ServerTransport& transport) {
  if (transport_ != nullptr) {
    return Status::Error("fleet router: already serving");
  }
  Status st = transport.Start([this](Bytes request, svc::Respond respond) {
    HandleFrame(std::move(request), std::move(respond));
  });
  if (!st) return st;
  transport_ = &transport;
  return Status::Ok();
}

void FleetRouter::Shutdown() {
  if (transport_ != nullptr) {
    transport_->Stop();
    transport_ = nullptr;
  }
  std::lock_guard<std::mutex> lk(pool_mu_);
  pool_.clear();
}

void FleetRouter::HandleFrame(Bytes request, svc::Respond respond) {
  respond(Process(request));
}

std::uint32_t FleetRouter::NextRoundRobin() {
  std::lock_guard<std::mutex> lk(pool_mu_);
  return static_cast<std::uint32_t>(round_robin_++ % map_.TotalShards());
}

Result<Bytes> FleetRouter::CallReplica(std::uint32_t shard,
                                       std::uint32_t replica,
                                       const Bytes& frame) {
  std::unique_ptr<svc::ClientTransport> conn;
  const auto key = std::make_pair(shard, replica);
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    auto it = pool_.find(key);
    if (it != pool_.end() && !it->second.empty()) {
      conn = std::move(it->second.back());
      it->second.pop_back();
    }
  }
  if (!conn) {
    auto dialed = backends_(shard, replica)();
    if (!dialed.ok()) return Result<Bytes>(dialed.status());
    conn = std::move(dialed.value());
  }
  const auto started = std::chrono::steady_clock::now();
  auto reply = conn->Call(frame, config_.backend_deadline);
  if (reply.ok()) {
    health_->ReportSuccess(
        shard, replica,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - started)
                .count()));
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_[key].push_back(std::move(conn));
  } else {
    // The router sees only the transport plane, so every failure feeds the
    // benign breaker; Byzantine detection lives with verifying clients.
    health_->ReportFailure(shard, replica);
  }
  // On failure the connection may be desynced: drop it, the next call dials
  // fresh.
  return reply;
}

Result<Bytes> FleetRouter::CallBackend(std::uint32_t shard,
                                       const Bytes& frame) {
  const std::uint32_t replicas = map_.Replicas();
  std::uint32_t start;
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    start = static_cast<std::uint32_t>(replica_rr_[shard]++ % replicas);
  }
  // Breaker-routable replicas first (the non-mutating check: the actual
  // probe-consuming AllowRequest happens right before each attempt, so a
  // candidate that is never tried cannot strand a half-open probe slot);
  // when every breaker is open, try them all anyway — the breaker is
  // backoff advice, and a router that answers "unreachable" while a backend
  // just recovered helps nobody. Quarantine still holds even then.
  bool breakers_bypassed = false;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t i = 0; i < replicas; ++i) {
    const std::uint32_t replica = (start + i) % replicas;
    if (health_->Routable(shard, replica)) candidates.push_back(replica);
  }
  if (candidates.empty()) {
    breakers_bypassed = true;
    for (std::uint32_t i = 0; i < replicas; ++i) {
      const std::uint32_t replica = (start + i) % replicas;
      if (!health_->Quarantined(replica)) candidates.push_back(replica);
    }
  }
  Status last = Status::Error("fleet router: no replicas");
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!breakers_bypassed && !health_->AllowRequest(shard, candidates[i])) {
      continue;  // probe slot taken / quarantined since the Routable scan
    }
    auto reply = CallReplica(shard, candidates[i], frame);
    if (reply.ok()) return reply;
    last = reply.status();
    if (!svc::IsTransientTransportError(last)) break;
    if (i + 1 < candidates.size()) failovers_->Add(1);
  }
  return Result<Bytes>(last);
}

Bytes FleetRouter::ProcessAnnounceFanout(const Bytes& request) {
  fanouts_->Add(1);
  std::uint64_t best_ack = 0;
  bool any_ok = false;
  bool any_duplicate = false;
  Bytes first_failure;
  for (std::uint32_t shard = 0; shard < map_.TotalShards(); ++shard) {
    for (std::uint32_t replica = 0; replica < map_.Replicas(); ++replica) {
      auto reply = CallReplica(shard, replica, request);
      if (!reply.ok()) {
        if (first_failure.empty()) {
          first_failure = svc::EncodeStatusReply(
              svc::Code::kError,
              "fanout: shard " + std::to_string(shard) + " replica " +
                  std::to_string(replica) + ": " + reply.status().message());
        }
        continue;
      }
      auto env = svc::DecodeReplyEnvelope(reply.value());
      if (!env.ok()) {
        if (first_failure.empty()) first_failure = std::move(reply.value());
        continue;
      }
      if (env.value().code == svc::Code::kOk) {
        if (auto ack = svc::DecodeAckBody(env.value().body); ack.ok()) {
          best_ack = std::max(best_ack, ack.value());
        }
        any_ok = true;
      } else if (IsStaleHeightReject(env.value().message)) {
        any_duplicate = true;
      } else if (first_failure.empty()) {
        first_failure = std::move(reply.value());
      }
    }
  }
  if (any_ok) return svc::EncodeAckReply(best_ack);
  // Every shard had already applied the block: idempotent success (ack 0 —
  // no fresh tip height was learned).
  if (any_duplicate) return svc::EncodeAckReply(0);
  errors_->Add(1);
  if (!first_failure.empty()) return first_failure;
  return svc::EncodeStatusReply(svc::Code::kError,
                                "fanout: no backend reachable");
}

Bytes FleetRouter::Process(const Bytes& request) {
  auto op = svc::PeekOp(request);
  if (!op.ok()) {
    errors_->Add(1);
    return svc::EncodeStatusReply(svc::Code::kError, op.status().message());
  }
  switch (op.value()) {
    case svc::Op::kShardMap:
      shard_map_serves_->Add(1);
      return svc::EncodeShardMapReply(map_.Serialize());
    case svc::Op::kShardScoped: {
      auto scoped = svc::DecodeShardScopedRequest(request);
      if (!scoped.ok()) {
        errors_->Add(1);
        return svc::EncodeStatusReply(svc::Code::kError,
                                      scoped.status().message());
      }
      if (scoped.value().map_version != map_.Version()) {
        stale_rejects_->Add(1);
        return svc::EncodeStatusReply(
            svc::Code::kStaleShard,
            "router: stale shard map: client v" +
                std::to_string(scoped.value().map_version) + ", fleet v" +
                std::to_string(map_.Version()));
      }
      if (scoped.value().shard_id >= map_.TotalShards()) {
        stale_rejects_->Add(1);
        return svc::EncodeStatusReply(
            svc::Code::kStaleShard,
            "router: shard " + std::to_string(scoped.value().shard_id) +
                " out of range");
      }
      break;  // forward below
    }
    case svc::Op::kAnnounce:
      return ProcessAnnounceFanout(request);
    default:
      break;
  }

  std::uint32_t shard = 0;
  switch (op.value()) {
    case svc::Op::kShardScoped:
      // Re-decode is cheap (header only) and keeps the switch above simple.
      shard = svc::DecodeShardScopedRequest(request).value().shard_id;
      break;
    case svc::Op::kTipFetch:
    case svc::Op::kStats:
    case svc::Op::kHealth:
      // Any shard can answer these; kHealth reports the chosen replica's
      // own liveness (a router-level fleet view comes from asking each
      // endpoint, which dcertctl fleet-health does).
      shard = NextRoundRobin();
      break;
    case svc::Op::kHistorical:
    case svc::Op::kAggregate: {
      auto q = svc::DecodeQueryRequest(request);
      if (!q.ok()) {
        errors_->Add(1);
        return svc::EncodeStatusReply(svc::Code::kError, q.status().message());
      }
      const svc::QueryRequest& query = q.value().query;
      auto subs = map_.Split(query.account, query.from_height, query.to_height);
      if (subs.empty()) {
        errors_->Add(1);
        return svc::EncodeStatusReply(svc::Code::kError,
                                      "router: empty query window");
      }
      if (subs.size() > 1) {
        // Merging per-band proofs would mean fabricating an answer the
        // router cannot verify; the client must scatter-gather.
        errors_->Add(1);
        return svc::EncodeStatusReply(
            svc::Code::kError,
            "router: window spans " + std::to_string(subs.size()) +
                " shards; use shard-scoped scatter-gather");
      }
      shard = subs[0].shard_id;
      break;
    }
    default:
      errors_->Add(1);
      return svc::EncodeStatusReply(svc::Code::kError,
                                    "router: unroutable op");
  }

  auto reply = CallBackend(shard, request);
  if (!reply.ok()) {
    errors_->Add(1);
    return svc::EncodeStatusReply(
        svc::Code::kError, "router: shard " + std::to_string(shard) +
                               " unreachable: " + reply.status().message());
  }
  forwarded_->Add(1);
  return std::move(reply.value());
}

FleetRouterStats FleetRouter::Stats() const {
  FleetRouterStats s;
  s.forwarded = forwarded_->Value();
  s.fanouts = fanouts_->Value();
  s.failovers = failovers_->Value();
  s.shard_map_serves = shard_map_serves_->Value();
  s.stale_rejects = stale_rejects_->Value();
  s.errors = errors_->Value();
  return s;
}

}  // namespace dcert::fleet
