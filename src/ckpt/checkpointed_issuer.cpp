#include "ckpt/checkpointed_issuer.h"

#include <memory>
#include <utility>

#include "dcert/enclave_program.h"
#include "obs/metrics.h"

namespace dcert::ckpt {

namespace {

struct IssuerCkptMetrics {
  std::shared_ptr<obs::Counter> compactions;
  std::shared_ptr<obs::Gauge> bootstrap_height;
  std::shared_ptr<obs::Gauge> tail_replayed;

  static IssuerCkptMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static IssuerCkptMetrics* m = new IssuerCkptMetrics{
        reg.GetCounter("ci.ckpt.compactions"),
        reg.GetGauge("ci.ckpt.bootstrap_height"),
        reg.GetGauge("ci.ckpt.tail_replayed")};
    return *m;
  }
};

}  // namespace

CheckpointedIssuer::CheckpointedIssuer(CheckpointConfig config,
                                       CheckpointStore store,
                                       core::DurableCertificateIssuer inner,
                                       query::HistoricalIndex shadow,
                                       std::uint64_t shadow_next,
                                       std::uint64_t last_ckpt)
    : config_(std::move(config)),
      store_(std::move(store)),
      inner_(std::move(inner)),
      shadow_(std::move(shadow)),
      shadow_next_(shadow_next),
      last_ckpt_(last_ckpt) {}

Result<CheckpointedIssuer> CheckpointedIssuer::Open(
    chain::ChainConfig config,
    std::shared_ptr<const chain::ContractRegistry> registry,
    core::DurableIssuerOptions options, CheckpointConfig ckpt) {
  using R = Result<CheckpointedIssuer>;
  auto store = CheckpointStore::Open(ckpt.dir);
  if (!store) return R(store.status());

  const bool shadow_active = ckpt.with_index && ckpt.interval > 0;
  query::HistoricalIndex shadow;
  std::uint64_t shadow_next = 1;
  std::uint64_t last_ckpt = 0;

  // The bootstrap hook runs synchronously inside DurableCertificateIssuer::
  // Open (resume path only), so capturing the locals above by reference is
  // safe: they outlive the call and carry the restored shadow state out.
  options.bootstrap = [&](core::CertificateIssuer& issuer,
                          const chain::BlockStore& blocks)
      -> Result<std::uint64_t> {
    using RB = Result<std::uint64_t>;
    if (blocks.Count() == 0) return std::uint64_t{0};
    auto latest = store.value().LoadLatestValid(
        blocks.Count() - 1, core::ExpectedEnclaveMeasurement());
    if (!latest) return RB(latest.status());
    if (!latest.value().has_value()) return std::uint64_t{0};
    Checkpoint& ck = *latest.value();
    if (!ck.has_body || !ck.has_state) {
      return RB::Error("checkpoint bootstrap: checkpoint at height " +
                       std::to_string(ck.height) +
                       " lacks the body/state an issuer resume needs");
    }
    if (Status st = issuer.InstallSnapshot(ck.TipBlock(), ck.state,
                                           ck.block_cert);
        !st) {
      return RB(st);
    }
    if (shadow_active) {
      if (!ck.has_index) {
        return RB::Error("checkpoint bootstrap: checkpoint at height " +
                         std::to_string(ck.height) +
                         " carries no index content but the shadow index "
                         "needs it (pre-checkpoint blocks may be compacted)");
      }
      if (Status st = shadow.RestoreContent(ck.index_content); !st) {
        return RB(st.WithContext("checkpoint shadow index"));
      }
      if (shadow.CurrentDigest() != ck.index_digest) {
        return RB::Error(
            "checkpoint bootstrap: restored index content does not reproduce "
            "the checkpoint's digest");
      }
    }
    shadow_next = ck.height + 1;
    last_ckpt = ck.height;
    return ck.height;
  };

  auto inner = core::DurableCertificateIssuer::Open(std::move(config),
                                                    std::move(registry),
                                                    std::move(options));
  if (!inner) return R(inner.status());

  auto& m = IssuerCkptMetrics::Get();
  m.bootstrap_height->Set(
      static_cast<std::int64_t>(inner.value().Recovery().bootstrap_height));
  m.tail_replayed->Set(
      static_cast<std::int64_t>(inner.value().Recovery().blocks_replayed +
                                inner.value().Recovery().blocks_recertified));

  CheckpointedIssuer out(std::move(ckpt), std::move(store.value()),
                         std::move(inner.value()), std::move(shadow),
                         shadow_next, last_ckpt);
  // Catch the shadow up over the replayed tail, then honor a cadence that
  // came due while the issuer was down.
  if (Status st = out.AdvanceShadowTo(out.inner_.Issuer().Node().Height());
      !st) {
    return R(st);
  }
  if (Status st = out.MaybeCheckpoint(); !st) return R(st);
  return out;
}

Status CheckpointedIssuer::AdvanceShadowTo(std::uint64_t height) {
  if (!ShadowActive()) return Status::Ok();
  for (; shadow_next_ <= height; ++shadow_next_) {
    auto blk = inner_.Blocks().Get(shadow_next_);
    if (!blk) return blk.status().WithContext("shadow index catch-up");
    shadow_.ApplyBlock(blk.value());
  }
  return Status::Ok();
}

Status CheckpointedIssuer::MaybeCheckpoint() {
  if (config_.interval == 0) return Status::Ok();
  const std::uint64_t tip = inner_.Issuer().Node().Height();
  if (tip == 0 || tip - last_ckpt_ < config_.interval) return Status::Ok();
  return WriteCheckpointNow();
}

Status CheckpointedIssuer::WriteCheckpointNow() {
  const chain::FullNode& node = inner_.Issuer().Node();
  const std::uint64_t tip = node.Height();
  if (tip == 0) return Status::Error("checkpoint: nothing to checkpoint yet");
  if (!inner_.Issuer().LatestCert()) {
    return Status::Error("checkpoint: tip carries no certificate");
  }
  if (ShadowActive() && shadow_next_ != tip + 1) {
    return Status::Error("checkpoint: shadow index is not at the tip");
  }

  Checkpoint ck;
  ck.height = tip;
  const chain::Block& tip_block = node.Tip();
  ck.header = tip_block.header;
  ck.has_body = true;
  ck.txs = tip_block.txs;
  ck.block_cert = *inner_.Issuer().LatestCert();
  ck.has_state = true;
  ck.state = node.State().Snapshot();
  if (ShadowActive()) {
    ck.has_index = true;
    ck.index_digest = shadow_.CurrentDigest();
    ck.index_content = shadow_.SerializeContent();
  }

  if (Status st = store_.Write(ck); !st) return st;
  if (Status st = store_.Prune(config_.keep); !st) return st;
  last_ckpt_ = tip;

  if (config_.compact_logs) {
    // Compact below the *oldest* retained checkpoint, never the newest: any
    // retained checkpoint then still has its anchor block + cert and a
    // replayable tail, so falling back past a rotten newest file works.
    const std::vector<std::uint64_t> retained = store_.Heights();
    if (!retained.empty()) {
      if (Status st = inner_.CompactBelow(retained.front()); !st) return st;
      IssuerCkptMetrics::Get().compactions->Add(1);
    }
  }
  return Status::Ok();
}

Status CheckpointedIssuer::CertifyBlock(const chain::Block& blk) {
  if (Status st = inner_.CertifyBlock(blk); !st) return st;
  if (ShadowActive() && blk.header.height == shadow_next_) {
    shadow_.ApplyBlock(blk);
    ++shadow_next_;
  }
  return MaybeCheckpoint();
}

}  // namespace dcert::ckpt
