// A DurableCertificateIssuer wrapped with checkpoint cadence and log
// compaction: every `interval` certified blocks it seals a checkpoint of the
// issuer's state (and, optionally, the historical index content it shadows),
// prunes old checkpoints, and compacts log segments below the oldest retained
// checkpoint. Open() recovers through the newest valid checkpoint — restore
// the sealed key, install the certified snapshot, replay only the tail — so
// recovery time is O(delta) in the checkpoint interval, flat in chain length.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/status.h"
#include "dcert/durable_issuer.h"
#include "query/historical_index.h"

namespace dcert::ckpt {

struct CheckpointConfig {
  /// Directory holding the sealed checkpoint files.
  std::string dir;
  /// Write a checkpoint whenever the tip advanced `interval` blocks past the
  /// last one (0 disables writing; existing checkpoints still bootstrap).
  std::uint64_t interval = 0;
  /// Checkpoints retained after each write (>= 1). Compaction only drops log
  /// history below the *oldest* retained checkpoint, so every retained
  /// checkpoint stays recoverable even if newer files rot.
  std::size_t keep = 2;
  /// Shadow a historical index and carry its content in checkpoints, so a
  /// rehydrating service restores the index in O(content) instead of
  /// replaying the (compacted) chain.
  bool with_index = true;
  /// Compact log segments below the oldest retained checkpoint after each
  /// write. Requires DurableIssuerOptions::segment_records > 0 to have any
  /// effect (compaction drops whole sealed segments).
  bool compact_logs = true;
};

class CheckpointedIssuer {
 public:
  CheckpointedIssuer(CheckpointedIssuer&&) noexcept = default;
  CheckpointedIssuer(const CheckpointedIssuer&) = delete;
  CheckpointedIssuer& operator=(const CheckpointedIssuer&) = delete;

  /// Opens the durable issuer with a checkpoint bootstrap hook installed:
  /// resume loads the newest valid checkpoint (if any), installs its
  /// certified snapshot, and replays only the stored tail above it. The
  /// shadow index is restored from the checkpoint's content and caught up
  /// over the same tail. A cadence already overdue at open (e.g. recovery
  /// crossed an interval boundary) triggers an immediate checkpoint.
  static Result<CheckpointedIssuer> Open(
      chain::ChainConfig config,
      std::shared_ptr<const chain::ContractRegistry> registry,
      core::DurableIssuerOptions options, CheckpointConfig ckpt);

  /// CertifyBlock + shadow-index apply + cadence check.
  Status CertifyBlock(const chain::Block& blk);

  /// Seals a checkpoint at the current tip regardless of cadence.
  Status WriteCheckpointNow();

  core::DurableCertificateIssuer& Durable() { return inner_; }
  const core::DurableCertificateIssuer& Durable() const { return inner_; }
  CheckpointStore& Store() { return store_; }
  const CheckpointStore& Store() const { return store_; }
  /// Height of the newest checkpoint this instance wrote or bootstrapped
  /// from (0 = none yet).
  std::uint64_t LastCheckpointHeight() const { return last_ckpt_; }
  /// Checkpoint height recovery resumed from (0 = full replay / fresh).
  std::uint64_t BootstrapHeight() const {
    return inner_.Recovery().bootstrap_height;
  }
  const query::HistoricalIndex& ShadowIndex() const { return shadow_; }

 private:
  CheckpointedIssuer(CheckpointConfig config, CheckpointStore store,
                     core::DurableCertificateIssuer inner,
                     query::HistoricalIndex shadow, std::uint64_t shadow_next,
                     std::uint64_t last_ckpt);

  bool ShadowActive() const {
    return config_.with_index && config_.interval > 0;
  }
  /// Applies stored blocks [shadow_next_, height] to the shadow index.
  Status AdvanceShadowTo(std::uint64_t height);
  /// Writes a checkpoint when the cadence is due.
  Status MaybeCheckpoint();

  CheckpointConfig config_;
  CheckpointStore store_;
  core::DurableCertificateIssuer inner_;
  query::HistoricalIndex shadow_;
  std::uint64_t shadow_next_ = 1;  // next height to apply to the shadow
  std::uint64_t last_ckpt_ = 0;
};

}  // namespace dcert::ckpt
