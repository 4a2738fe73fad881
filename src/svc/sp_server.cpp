#include "svc/sp_server.h"

#include <chrono>
#include <thread>

#include "common/build_info.h"
#include "obs/trace.h"
#include "query/extraction.h"

namespace dcert::svc {

namespace {

/// Out-of-order announcements wait here at most; beyond it the announcer is
/// either malicious or hopelessly ahead, so shed the request.
constexpr std::size_t kMaxPendingAnnouncements = 1024;

}  // namespace

SpServer::SpServer(SpServerConfig config)
    : config_(config),
      start_time_(std::chrono::steady_clock::now()),
      cache_(config.cache_shards, config.cache_capacity_bytes),
      index_("historical"),
      served_(std::make_shared<obs::Counter>()),
      shed_(std::make_shared<obs::Counter>()),
      errors_(std::make_shared<obs::Counter>()),
      blocks_applied_(std::make_shared<obs::Counter>()),
      announce_rejected_(std::make_shared<obs::Counter>()),
      shard_rejects_(std::make_shared<obs::Counter>()),
      inflight_gauge_(std::make_shared<obs::Gauge>()),
      lat_tip_ns_(std::make_shared<obs::Histogram>()),
      lat_historical_ns_(std::make_shared<obs::Histogram>()),
      lat_aggregate_ns_(std::make_shared<obs::Histogram>()),
      lat_announce_ns_(std::make_shared<obs::Histogram>()),
      lat_stats_ns_(std::make_shared<obs::Histogram>()) {
  if (config_.workers == 0) {
    config_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
  auto& reg = obs::MetricsRegistry::Global();
  reg.Register("svc.server.served", served_);
  reg.Register("svc.server.shed", shed_);
  reg.Register("svc.server.errors", errors_);
  reg.Register("svc.server.blocks_applied", blocks_applied_);
  reg.Register("svc.server.announce_rejected", announce_rejected_);
  reg.Register("svc.server.shard_rejects", shard_rejects_);
  reg.Register("svc.server.inflight", inflight_gauge_);
  reg.Register("svc.latency.tip_ns", lat_tip_ns_);
  reg.Register("svc.latency.historical_ns", lat_historical_ns_);
  reg.Register("svc.latency.aggregate_ns", lat_aggregate_ns_);
  reg.Register("svc.latency.announce_ns", lat_announce_ns_);
  reg.Register("svc.latency.stats_ns", lat_stats_ns_);
  // Build identity + uptime gauges so fleet stats merges can spot version
  // skew and per-replica age (`svc.server.uptime_ms` updates on kStats).
  common::RegisterBuildInfoMetrics();
  uptime_gauge_ = reg.GetGauge("svc.server.uptime_ms");
}

std::uint64_t SpServer::UptimeMs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
}

SpServer::~SpServer() { Shutdown(); }

Status SpServer::Serve(ServerTransport& transport) {
  transport_ = &transport;
  return transport.Start([this](Bytes request, Respond respond) {
    HandleFrame(std::move(request), std::move(respond));
  });
}

void SpServer::Shutdown() {
  {
    std::unique_lock<std::mutex> lk(admit_mu_);
    draining_ = true;
    drain_cv_.wait(lk, [this] { return in_flight_ == 0; });
  }
  if (transport_ != nullptr) {
    transport_->Stop();
    transport_ = nullptr;
  }
}

void SpServer::HandleFrame(Bytes request, Respond respond) {
  const char* shed_reason = nullptr;
  {
    std::unique_lock<std::mutex> lk(admit_mu_);
    if (draining_ || in_flight_ >= config_.max_queue) {
      shed_reason = draining_ ? "draining" : "overloaded";
    } else {
      ++in_flight_;
      inflight_gauge_->Add(1);
      permit_cv_.wait(lk, [this] { return executing_ < config_.workers; });
      ++executing_;
    }
  }
  if (shed_reason != nullptr) {
    // The busy reply is written after admit_mu_ drops: a stuck client's
    // socket can only stall its own transport thread, never admission for
    // every other connection.
    shed_->Add(1);
    respond(EncodeStatusReply(Code::kBusy, shed_reason));
    return;
  }
  respond(Process(request));
  inflight_gauge_->Sub(1);
  std::lock_guard<std::mutex> lk(admit_mu_);
  --executing_;
  permit_cv_.notify_one();
  if (--in_flight_ == 0) drain_cv_.notify_all();
}

Bytes SpServer::Process(const Bytes& request) {
  if (config_.debug_process_delay_ms != 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(config_.debug_process_delay_ms));
  }
  auto op = PeekOp(request);
  if (!op.ok()) {
    errors_->Add(1);
    return EncodeStatusReply(Code::kError, op.message());
  }
  switch (op.value()) {
    case Op::kTipFetch: {
      obs::TraceSpan span("svc.tip_fetch", lat_tip_ns_);
      return ProcessTipFetch();
    }
    case Op::kHistorical:
    case Op::kAggregate:
      return ProcessQuery(request);
    case Op::kAnnounce: {
      auto req = DecodeAnnounceRequest(request);
      if (!req.ok()) {
        errors_->Add(1);
        return EncodeStatusReply(Code::kError, req.message());
      }
      obs::TraceSpan span("svc.announce", lat_announce_ns_);
      Status st = Announce(req.value());
      if (!st) {
        errors_->Add(1);
        return EncodeStatusReply(Code::kError, st.message());
      }
      served_->Add(1);
      std::shared_lock<std::shared_mutex> lk(state_mu_);
      return EncodeAckReply(tip_ ? tip_->header.height : 0);
    }
    case Op::kStats: {
      obs::TraceSpan span("svc.stats", lat_stats_ns_);
      served_->Add(1);
      uptime_gauge_->Set(static_cast<std::int64_t>(UptimeMs()));
      return EncodeStatsReply(obs::MetricsRegistry::Global().Snapshot());
    }
    case Op::kHealth: {
      return ProcessHealth();
    }
    case Op::kShardMap: {
      if (config_.shard_map.empty()) {
        errors_->Add(1);
        return EncodeStatusReply(Code::kError, "no shard map configured");
      }
      served_->Add(1);
      return EncodeShardMapReply(config_.shard_map);
    }
    case Op::kShardScoped: {
      auto req = DecodeShardScopedRequest(request);
      if (!req.ok()) {
        errors_->Add(1);
        return EncodeStatusReply(Code::kError, req.message());
      }
      return ProcessShardScoped(req.value());
    }
  }
  errors_->Add(1);
  return EncodeStatusReply(Code::kError, "unhandled op");
}

Bytes SpServer::RejectShard(const std::string& message) {
  shard_rejects_->Add(1);
  return EncodeStatusReply(Code::kStaleShard, message);
}

Bytes SpServer::ProcessShardScoped(const ShardScopedRequest& req) {
  if (!config_.shard.Sharded()) {
    errors_->Add(1);
    return EncodeStatusReply(Code::kError,
                             "shard-scoped request to unsharded server");
  }
  if (req.map_version != config_.shard.map_version) {
    return RejectShard("stale shard map: client v" +
                       std::to_string(req.map_version) + ", server v" +
                       std::to_string(config_.shard.map_version));
  }
  if (req.shard_id != config_.shard.shard_id) {
    return RejectShard("misrouted: addressed shard " +
                       std::to_string(req.shard_id) + ", this is shard " +
                       std::to_string(config_.shard.shard_id));
  }
  // Only queries are shard-scoped: tip fetches, announcements, stats and map
  // fetches are process-global, and scoping them would only mask routing
  // bugs. ProcessQuery's decode rejects any other inner op.
  return ProcessQuery(req.inner);
}

Bytes SpServer::ProcessHealth() {
  // Deliberately cheap: one shared lock for the tip height, the rest from
  // lock-free counters — health probes must stay serviceable under load.
  HealthInfo info;
  {
    std::shared_lock<std::shared_mutex> lk(state_mu_);
    info.tip_height = tip_ ? tip_->header.height : 0;
  }
  info.uptime_ms = UptimeMs();
  uptime_gauge_->Set(static_cast<std::int64_t>(info.uptime_ms));
  info.inflight = static_cast<std::uint64_t>(inflight_gauge_->Value());
  info.served = served_->Value();
  info.shed = shed_->Value();
  info.build = common::BuildString();
  served_->Add(1);
  return EncodeHealthReply(info);
}

Bytes SpServer::ProcessTipFetch() {
  std::shared_lock<std::shared_mutex> lk(state_mu_);
  if (!tip_) {
    errors_->Add(1);
    return EncodeStatusReply(Code::kError, "no certified tip yet");
  }
  served_->Add(1);
  return EncodeTipReply(tip_wire_);
}

Bytes SpServer::ProcessQuery(const Bytes& frame) {
  auto decoded = DecodeQueryRequest(frame);
  if (!decoded.ok()) {
    errors_->Add(1);
    return EncodeStatusReply(Code::kError, decoded.message());
  }
  const QueryRequest& req = decoded.value().query;
  // A sharded server serves only what it owns, plain (router-forwarded) or
  // shard-scoped; the rejection is retryable because the client's routing
  // data, not the query, is what's wrong.
  if (config_.shard.Sharded()) {
    if (!config_.shard.OwnsKey(req.account)) {
      return RejectShard("query key " + std::to_string(req.account) +
                         " not owned by shard " +
                         std::to_string(config_.shard.shard_id));
    }
    if (!config_.shard.OwnsWindow(req.from_height, req.to_height)) {
      return RejectShard("query window outside shard height band");
    }
  }
  const bool historical = req.op == Op::kHistorical;
  obs::TraceSpan span(historical ? "svc.historical" : "svc.aggregate",
                      historical ? lat_historical_ns_ : lat_aggregate_ns_);
  const std::optional<Hash256>& held_tip_key = decoded.value().held_tip_key;
  // Shared lock spans the tip read and the proof build, so the tip carried
  // in the reply is always the one the proof was built against.
  std::shared_lock<std::shared_mutex> lk(state_mu_);
  if (!tip_) {
    errors_->Add(1);
    return EncodeStatusReply(Code::kError, "no certified tip yet");
  }
  Hash256 key;
  if (config_.enable_cache) {
    key = ResponseCache::Key(req.op, req.account, req.from_height,
                             req.to_height, tip_->header.height);
    if (auto hit = cache_.Lookup(key)) {
      served_->Add(1);
      return AssembleQueryReply(tip_wire_, held_tip_key, *hit);
    }
  }
  Bytes proof =
      (historical
           ? index_.Query(req.account, req.from_height, req.to_height)
           : index_.AggregateQuery(req.account, req.from_height, req.to_height))
          .Serialize();
  Bytes reply = AssembleQueryReply(tip_wire_, held_tip_key, proof);
  if (config_.enable_cache) cache_.Insert(key, std::move(proof));
  served_->Add(1);
  return reply;
}

void SpServer::SetTipLocked(TipInfo tip) {
  tip_wire_ = EncodeTip(tip);
  tip_ = std::move(tip);
}

Status SpServer::Announce(const AnnounceRequest& req) {
  std::unique_lock<std::shared_mutex> lk(state_mu_);
  return AnnounceLocked(req);
}

Status SpServer::Restore(const ckpt::Checkpoint* ck,
                         const StoredChain* stores) {
  if (ck == nullptr && stores == nullptr) {
    return Status::Error("rehydrate: neither a checkpoint nor stores given");
  }
  std::unique_lock<std::shared_mutex> lk(state_mu_);
  if (next_height_ != 1 || tip_) {
    return Status::Error("rehydrate: server has already applied blocks");
  }
  // The stores replay the blocks above the checkpoint's tip, or genesis.
  const std::uint64_t anchor_height = ck != nullptr ? ck->height : 0;
  chain::BlockHeader anchor_hdr;
  if (stores != nullptr) {
    const chain::BlockStore& blocks = stores->blocks;
    if (blocks.Count() <= anchor_height) {
      if (ck == nullptr) return Status::Error("rehydrate: empty block store");
      return Status::Error("rehydrate: block store (" +
                           std::to_string(blocks.Count()) +
                           " blocks) is behind checkpoint height " +
                           std::to_string(anchor_height));
    }
    if (blocks.BaseHeight() > anchor_height) {
      if (ck == nullptr) {
        return Status::Error(
            "rehydrate: history below height " +
            std::to_string(blocks.BaseHeight()) +
            " was compacted; rehydrate from a checkpoint instead");
      }
      return Status::Error(
          "rehydrate: log history was compacted above checkpoint height " +
          std::to_string(anchor_height));
    }
    if (stores->certs.Count() + 1 < blocks.Count()) {
      return Status::Error(
          "rehydrate: cert store behind block store (reopen the durable "
          "issuer to reconcile first)");
    }
    auto anchor = blocks.Get(anchor_height);
    if (!anchor) return anchor.status();
    // Anchor the checkpoint to the durable chain: the stored block at its
    // height must be the certified tip it claims.
    if (ck != nullptr && anchor.value().header.Hash() != ck->header.Hash()) {
      return Status::Error(
          "rehydrate: checkpoint tip does not match the stored block at "
          "height " + std::to_string(anchor_height));
    }
    anchor_hdr = anchor.value().header;
  }
  if (ck != nullptr) {
    if (Status st = RestoreCheckpointLocked(*ck); !st) return st;
  }
  if (stores != nullptr) {
    if (Status st = ReplayStoredLocked(*stores, anchor_height + 1, anchor_hdr);
        !st) {
      return st;
    }
    if (ck != nullptr) {
      obs::MetricsRegistry::Global()
          .GetGauge("ci.ckpt.sp_tail_replayed")
          ->Set(static_cast<std::int64_t>(stores->blocks.Count() - 1 -
                                          anchor_height));
    }
  }
  cache_.InvalidateAll();
  return Status::Ok();
}

Status SpServer::ReplayStoredLocked(const StoredChain& stores,
                                    std::uint64_t from,
                                    chain::BlockHeader prev_hdr) {
  const chain::BlockStore& blocks = stores.blocks;
  // Envelope signatures are checked in chunked crypto::VerifyBatch dispatches
  // (every chunk shares one IAS point term); chain-linkage and digest checks
  // stay per height, in order, with the same error statuses as before.
  constexpr std::uint64_t kRehydrateChunk = 64;
  std::vector<core::BlockCertificate> chunk_certs;
  std::vector<const core::BlockCertificate*> chunk_ptrs;
  for (std::uint64_t chunk = from; chunk < blocks.Count();
       chunk += kRehydrateChunk) {
    const std::uint64_t chunk_end =
        std::min(blocks.Count(), chunk + kRehydrateChunk);
    chunk_certs.clear();
    for (std::uint64_t h = chunk; h < chunk_end; ++h) {
      auto cert = stores.certs.Get(h - 1);
      if (!cert) return cert.status();
      chunk_certs.push_back(std::move(cert.value()));
    }
    chunk_ptrs.clear();
    for (const auto& c : chunk_certs) chunk_ptrs.push_back(&c);
    std::vector<Status> env = core::VerifyCertificateEnvelopesBatch(
        chunk_ptrs.data(), chunk_ptrs.size(), config_.expected_measurement);
    for (std::uint64_t h = chunk; h < chunk_end; ++h) {
      auto blk = blocks.Get(h);
      if (!blk) return blk.status();
      const core::BlockCertificate& cert = chunk_certs[h - chunk];
      const chain::BlockHeader& hdr = blk.value().header;
      if (hdr.height != h || hdr.prev_hash != prev_hdr.Hash()) {
        return Status::Error("rehydrate: stored chain broken at height " +
                             std::to_string(h));
      }
      // Trust nothing in the store blindly: the same certificate validation a
      // live announcement gets.
      if (cert.digest != hdr.Hash()) {
        return Status::Error(
            "rehydrate: certificate does not sign stored block at height " +
            std::to_string(h));
      }
      if (!env[h - chunk]) {
        return env[h - chunk].WithContext("rehydrate height " +
                                          std::to_string(h));
      }
      index_.ApplyBlock(blk.value());
      TipInfo tip;
      tip.header = hdr;
      tip.block_cert = cert;
      tip.index_digest = index_.CurrentDigest();
      // The durable stores hold block certificates only, so the restored tip
      // carries the block certificate in the index slot as a placeholder: it
      // wire-encodes (a default certificate cannot), and a client's
      // AcceptIndexCert rejects it (its digest signs the header, not
      // H(header || index digest)) — fail-safe until the next live
      // announcement brings a real index certificate.
      tip.index_cert = cert;
      SetTipLocked(std::move(tip));
      ++next_height_;
      blocks_applied_->Add(1);
      prev_hdr = hdr;
    }
  }
  return Status::Ok();
}

Status SpServer::RestoreCheckpointLocked(const ckpt::Checkpoint& ck) {
  if (Status st = ckpt::VerifyCheckpoint(ck, config_.expected_measurement);
      !st) {
    return st.WithContext("rehydrate checkpoint");
  }
  if (!ck.has_index) {
    return Status::Error("rehydrate: checkpoint carries no index content");
  }
  if (Status st = index_.RestoreContent(ck.index_content); !st) {
    return st.WithContext("rehydrate index content");
  }
  if (index_.CurrentDigest() != ck.index_digest) {
    return Status::Error(
        "rehydrate: restored index content does not reproduce the "
        "checkpoint's certified digest");
  }
  TipInfo tip;
  tip.header = ck.header;
  tip.block_cert = ck.block_cert;
  tip.index_digest = ck.index_digest;
  // When the checkpoint carries a real index certificate (SP-written ones
  // do) and no tail follows, serve it directly — queries verify
  // immediately. ReplayStoredLocked overwrites this with the fail-safe
  // placeholder per replayed block: a stale index cert cannot cover an
  // advanced index.
  tip.index_cert = ck.has_index_cert ? ck.index_cert : ck.block_cert;
  SetTipLocked(std::move(tip));
  next_height_ = ck.height + 1;
  blocks_applied_->Add(1);  // the checkpoint stands in for its whole prefix
  return Status::Ok();
}

Result<ckpt::Checkpoint> SpServer::ExportCheckpoint() const {
  using R = Result<ckpt::Checkpoint>;
  std::shared_lock<std::shared_mutex> lk(state_mu_);
  if (!tip_) return R::Error("export checkpoint: no certified tip yet");
  ckpt::Checkpoint ck;
  ck.height = tip_->header.height;
  ck.header = tip_->header;
  ck.block_cert = tip_->block_cert;
  ck.has_index = true;
  ck.index_digest = tip_->index_digest;
  ck.index_content = index_.SerializeContent();
  // The rehydrate placeholder is the block certificate in the index slot;
  // a real index certificate signs H(header || digest) instead. Only carry
  // the real thing — a checkpointed placeholder would verify-fail on load.
  if (tip_->index_cert.digest ==
      core::IndexCertDigest(tip_->header.Hash(), tip_->index_digest)) {
    ck.has_index_cert = true;
    ck.index_cert = tip_->index_cert;
  }
  return ck;
}

Status SpServer::AnnounceLocked(const AnnounceRequest& req) {
  const chain::BlockHeader& hdr = req.block.header;
  auto reject = [this](Status st) {
    announce_rejected_->Add(1);
    return st;
  };
  if (hdr.height < next_height_) {
    return reject(Status::Error("announce: stale height " +
                                std::to_string(hdr.height)));
  }
  // Validate the certificates like a superlight client would: the block
  // certificate must sign this exact header, the index certificate must bind
  // the claimed digest to it, both from the pinned enclave.
  if (req.block_cert.digest != hdr.Hash()) {
    return reject(Status::Error("announce: block cert does not sign header"));
  }
  // Both certificate envelopes (four Schnorr signatures) verify in one
  // crypto::VerifyBatch dispatch; error precedence matches the sequential
  // per-certificate checks.
  const core::BlockCertificate* certs[2] = {&req.block_cert, &req.index_cert};
  std::vector<Status> env =
      core::VerifyCertificateEnvelopesBatch(certs, 2,
                                            config_.expected_measurement);
  if (!env[0]) {
    return reject(env[0].WithContext("announce: block cert"));
  }
  if (req.index_cert.digest !=
      core::IndexCertDigest(hdr.Hash(), req.index_digest)) {
    return reject(Status::Error("announce: index cert does not bind digest"));
  }
  if (!env[1]) {
    return reject(env[1].WithContext("announce: index cert"));
  }
  if (pending_.size() >= kMaxPendingAnnouncements) {
    return reject(Status::Error("announce: too many out-of-order blocks"));
  }
  pending_[hdr.height] = req;

  bool applied_any = false;
  bool wrote_in_shard = false;
  while (true) {
    auto it = pending_.find(next_height_);
    if (it == pending_.end()) break;
    const AnnounceRequest& r = it->second;
    if (tip_ && r.block.header.prev_hash != tip_->header.Hash()) {
      pending_.erase(it);
      return reject(Status::Error("announce: block does not extend tip"));
    }
    // Shard-local invalidation: announcements fan out to every shard of a
    // fleet, but only blocks that write keys this shard owns (inside its
    // height band) can affect replies it would serve. Deciding here, per
    // applied block, keeps the flush decision independent of how many other
    // shards share the process or the fleet.
    if (config_.shard.Sharded()) {
      for (const query::HistEntry& e :
           query::ExtractHistoricalWrites(r.block)) {
        if (config_.shard.OwnsWrite(e.account_word, r.block.header.height)) {
          wrote_in_shard = true;
          break;
        }
      }
    } else {
      wrote_in_shard = true;  // unsharded servers own everything
    }
    index_.ApplyBlock(r.block);
    if (index_.CurrentDigest() != r.index_digest) {
      // The CI certified a different index content than this block produces
      // — the announcement stream is inconsistent; the live index is now
      // unusable for certified serving.
      pending_.erase(it);
      return reject(
          Status::Error("announce: index digest mismatch after apply"));
    }
    TipInfo tip;
    tip.header = r.block.header;
    tip.block_cert = r.block_cert;
    tip.index_digest = r.index_digest;
    tip.index_cert = r.index_cert;
    SetTipLocked(std::move(tip));
    pending_.erase(it);
    ++next_height_;
    blocks_applied_->Add(1);
    applied_any = true;
  }
  // Every cached proof refers to an older tip once a block applies. Cache
  // keys embed the tip height, so skipping the flush for out-of-shard blocks
  // can never serve a stale hit — old entries just age out via LRU instead
  // of being dropped eagerly.
  if (applied_any) {
    if (wrote_in_shard) {
      cache_.InvalidateAll();
    } else {
      cache_.NoteInvalidationSkipped();
    }
  }
  return Status::Ok();
}

SpServerStats SpServer::Stats() const {
  SpServerStats s;
  s.served = served_->Value();
  s.shed = shed_->Value();
  s.errors = errors_->Value();
  s.blocks_applied = blocks_applied_->Value();
  s.announce_rejected = announce_rejected_->Value();
  s.shard_rejects = shard_rejects_->Value();
  s.cache = cache_.Stats();
  std::shared_lock<std::shared_mutex> lk(state_mu_);
  s.tip_height = tip_ ? tip_->header.height : 0;
  return s;
}

}  // namespace dcert::svc
