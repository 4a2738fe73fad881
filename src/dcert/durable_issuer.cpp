#include "dcert/durable_issuer.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/crash_point.h"
#include "obs/metrics.h"

namespace dcert::core {

namespace {

/// Process-wide recovery/durability metrics, aggregated across instances
/// (the per-open RecoveryReport stays the exact view tests assert on).
struct DurableMetrics {
  std::shared_ptr<obs::Counter> opens;
  std::shared_ptr<obs::Counter> resumes;
  std::shared_ptr<obs::Counter> torn_tails;
  std::shared_ptr<obs::Counter> certs_truncated;
  std::shared_ptr<obs::Counter> blocks_recertified;
  std::shared_ptr<obs::Counter> blocks_replayed;
  std::shared_ptr<obs::Gauge> tip_height;

  static DurableMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static DurableMetrics* m = new DurableMetrics{
        reg.GetCounter("ci.recovery.opens"),
        reg.GetCounter("ci.recovery.resumes"),
        reg.GetCounter("ci.recovery.torn_tails"),
        reg.GetCounter("ci.recovery.certs_truncated"),
        reg.GetCounter("ci.recovery.blocks_recertified"),
        reg.GetCounter("ci.recovery.blocks_replayed"),
        reg.GetGauge("ci.durable.tip_height")};
    return *m;
  }
};

std::optional<Bytes> ReadFileBytes(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  struct stat sb;
  if (::fstat(fd, &sb) < 0) {
    ::close(fd);
    return std::nullopt;
  }
  Bytes data(static_cast<std::size_t>(sb.st_size));
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t r = ::read(fd, data.data() + done, data.size() - done);
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (r == 0) break;
    done += static_cast<std::size_t>(r);
  }
  ::close(fd);
  if (done != data.size()) return std::nullopt;
  return data;
}

/// write + fsync + parent-dir fsync: the sealed key must be durable before
/// the first block is logged, or a crash could leave a chain with no key to
/// resume under.
Status WriteFileDurable(const std::string& path, ByteView data) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) {
    return Status::Error("sealed key: open " + path + ": " +
                         std::strerror(errno));
  }
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t w = ::write(fd, data.data() + done, data.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      const Status st =
          Status::Error(std::string("sealed key: write: ") + std::strerror(errno));
      ::close(fd);
      return st;
    }
    done += static_cast<std::size_t>(w);
  }
  if (::fsync(fd) < 0) {
    const Status st =
        Status::Error(std::string("sealed key: fsync: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int dfd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::Error("sealed key: open parent dir: " +
                         std::string(std::strerror(errno)));
  }
  if (::fsync(dfd) < 0) {
    const Status st = Status::Error("sealed key: fsync parent dir: " +
                                    std::string(std::strerror(errno)));
    ::close(dfd);
    return st;
  }
  ::close(dfd);
  return Status::Ok();
}

}  // namespace

DurableCertificateIssuer::DurableCertificateIssuer(CertificateIssuer issuer,
                                                   chain::BlockStore blocks,
                                                   CertificateStore certs,
                                                   AnnounceFn announce,
                                                   RecoveryReport recovery)
    : issuer_(std::move(issuer)),
      blocks_(std::move(blocks)),
      certs_(std::move(certs)),
      announce_(std::move(announce)),
      recovery_(recovery) {}

Result<DurableCertificateIssuer> DurableCertificateIssuer::Open(
    chain::ChainConfig config,
    std::shared_ptr<const chain::ContractRegistry> registry,
    DurableIssuerOptions options) {
  using R = Result<DurableCertificateIssuer>;
  auto& crash = common::CrashPoints::Global();

  auto blocks =
      chain::BlockStore::Open(options.block_log_path, options.segment_records);
  if (!blocks) return R(blocks.status());
  blocks.value().SetFsyncOnAppend(options.fsync_on_append);
  auto certs =
      CertificateStore::Open(options.cert_log_path, options.segment_records);
  if (!certs) return R(certs.status());
  certs.value().SetFsyncOnAppend(options.fsync_on_append);

  RecoveryReport report;
  report.block_log_torn = blocks.value().RecoveredFromTornTail();
  report.cert_log_torn = certs.value().RecoveredFromTornTail();

  const std::optional<Bytes> sealed = ReadFileBytes(options.sealed_key_path);
  std::optional<CertificateIssuer> issuer;

  const std::uint64_t block_count = blocks.value().Count();
  if (block_count == 0) {
    // Fresh start (or a crash before the genesis append made it). Certs
    // without any block are unanchorable — drop them; they re-issue
    // byte-identically once the chain regrows (deterministic signing).
    if (certs.value().Count() > 0) {
      report.certs_truncated = certs.value().Count();
      if (Status st = certs.value().TruncateTo(0); !st) return R(st);
    }
    if (sealed) {
      // The key outlived the crash: resume under it so pk_enc stays stable.
      auto restored = CertificateIssuer::Restore(config, registry, *sealed,
                                                 options.cost_model);
      if (!restored) {
        return R(restored.status().WithContext("durable issuer open"));
      }
      issuer.emplace(std::move(restored.value()));
    } else {
      issuer.emplace(config, registry, options.cost_model, options.key_seed);
      // The sealed key must be durable before the first block is logged: a
      // chain without its key cannot resume.
      crash.Hit("issuer.seal.save");
      if (Status st = WriteFileDurable(options.sealed_key_path,
                                       issuer->SealSigningKey());
          !st) {
        return R(st);
      }
    }
    if (Status st = blocks.value().Append(issuer->Node().GetBlock(0)); !st) {
      return R(st.WithContext("log genesis"));
    }
  } else {
    report.resumed = true;
    if (!sealed) {
      return R::Error("durable issuer: block log has " +
                      std::to_string(block_count) +
                      " blocks but the sealed key is missing: " +
                      options.sealed_key_path);
    }
    auto restored = CertificateIssuer::Restore(config, registry, *sealed,
                                               options.cost_model);
    if (!restored) {
      return R(restored.status().WithContext("durable issuer resume"));
    }
    issuer.emplace(std::move(restored.value()));

    if (blocks.value().BaseHeight() == 0) {
      auto genesis = blocks.value().Get(0);
      if (!genesis) return R(genesis.status());
      if (genesis.value().header.Hash() !=
          issuer->Node().GetBlock(0).header.Hash()) {
        return R::Error(
            "durable issuer: stored genesis does not match the config");
      }
    }

    // Reconcile: the commit order keeps the logs at most one record apart,
    // so after torn-tail truncation the cert log may be ahead (torn block
    // tail) or behind (crash between the appends).
    if (certs.value().Count() > block_count - 1) {
      report.certs_truncated = certs.value().Count() - (block_count - 1);
      if (Status st = certs.value().TruncateTo(block_count - 1); !st) {
        return R(st.WithContext("reconcile cert log"));
      }
    }

    // Checkpoint bootstrap: let the hook re-base the issuer onto a certified
    // snapshot, then cross-check it against the retained log suffix so a
    // checkpoint that diverged from the durable chain cannot be resumed.
    std::uint64_t boot_height = 0;
    if (options.bootstrap) {
      auto boot = options.bootstrap(*issuer, blocks.value());
      if (!boot) return R(boot.status().WithContext("checkpoint bootstrap"));
      boot_height = boot.value();
      report.bootstrap_height = boot_height;
    }
    if (boot_height == 0) {
      if (blocks.value().BaseHeight() > 0) {
        return R::Error(
            "durable issuer: block history below height " +
            std::to_string(blocks.value().BaseHeight()) +
            " was compacted and no valid checkpoint covers it; recovery "
            "requires a checkpoint");
      }
    } else {
      if (boot_height >= block_count) {
        return R::Error("durable issuer: checkpoint height " +
                        std::to_string(boot_height) +
                        " is beyond the durable chain (" +
                        std::to_string(block_count) + " blocks)");
      }
      if (blocks.value().BaseHeight() > boot_height) {
        return R::Error("durable issuer: log history was compacted above the "
                        "checkpoint height " + std::to_string(boot_height));
      }
      auto anchor = blocks.value().Get(boot_height);
      if (!anchor) return R(anchor.status().WithContext("checkpoint anchor"));
      if (anchor.value().header.Hash() != issuer->Node().Tip().header.Hash()) {
        return R::Error("durable issuer: checkpoint tip does not match the "
                        "stored block at height " + std::to_string(boot_height));
      }
      auto anchor_cert = certs.value().Get(boot_height - 1);
      if (!anchor_cert) {
        return R(anchor_cert.status().WithContext("checkpoint anchor cert"));
      }
      if (!issuer->LatestCert() ||
          !(anchor_cert.value() == *issuer->LatestCert())) {
        return R::Error("durable issuer: checkpoint certificate does not "
                        "match the stored certificate at height " +
                        std::to_string(boot_height));
      }
    }

    const std::uint64_t cert_count = certs.value().Count();
    for (std::uint64_t h = boot_height + 1; h < block_count; ++h) {
      auto blk = blocks.value().Get(h);
      if (!blk) return R(blk.status());
      if (h - 1 < cert_count) {
        auto cert = certs.value().Get(h - 1);
        if (!cert) return R(cert.status());
        // Full local re-validation, exactly as adopting another CI's block.
        if (Status st = issuer->AcceptBlockWithCert(blk.value(), cert.value());
            !st) {
          return R(st.WithContext("replay height " + std::to_string(h)));
        }
        ++report.blocks_replayed;
      } else {
        // Gap block: durable but never certified (so provably never
        // announced). Re-certify under the restored key and announce now.
        auto cert = issuer->ProcessBlock(blk.value());
        if (!cert) {
          return R(cert.status().WithContext("re-certify height " +
                                             std::to_string(h)));
        }
        if (Status st = certs.value().Append(cert.value()); !st) {
          return R(st.WithContext("re-certify height " + std::to_string(h)));
        }
        ++report.blocks_recertified;
        if (options.announce) {
          if (Status st = options.announce(blk.value(), cert.value()); !st) {
            return R(st.WithContext("announce re-certified height " +
                                    std::to_string(h)));
          }
        }
      }
    }
  }

  auto& m = DurableMetrics::Get();
  m.opens->Add(1);
  if (report.resumed) m.resumes->Add(1);
  if (report.block_log_torn) m.torn_tails->Add(1);
  if (report.cert_log_torn) m.torn_tails->Add(1);
  m.certs_truncated->Add(report.certs_truncated);
  m.blocks_recertified->Add(report.blocks_recertified);
  m.blocks_replayed->Add(report.blocks_replayed);
  m.tip_height->Set(static_cast<std::int64_t>(issuer->Node().Height()));

  return DurableCertificateIssuer(std::move(*issuer),
                                  std::move(blocks.value()),
                                  std::move(certs.value()),
                                  std::move(options.announce), report);
}

Status DurableCertificateIssuer::CompactBelow(std::uint64_t height) {
  if (height == 0) return Status::Ok();
  if (Status st = blocks_.CompactBelow(height); !st) {
    return st.WithContext("compact block log");
  }
  // Cert record for height h lives at index h-1: keep the checkpoint
  // anchor's certificate alongside its block.
  if (Status st = certs_.CompactBelow(height - 1); !st) {
    return st.WithContext("compact cert log");
  }
  return Status::Ok();
}

Status DurableCertificateIssuer::CertifyBlock(const chain::Block& blk) {
  auto& crash = common::CrashPoints::Global();
  crash.Hit("issuer.durable.begin");
  if (Status st = blocks_.Append(blk); !st) {
    return st.WithContext("durable block append");
  }
  crash.Hit("issuer.durable.after_block_append");
  auto cert = issuer_.ProcessBlock(blk);
  if (!cert) return cert.status();
  if (Status st = certs_.Append(cert.value()); !st) {
    return st.WithContext("durable cert append");
  }
  crash.Hit("issuer.durable.before_announce");
  if (announce_) {
    if (Status st = announce_(blk, cert.value()); !st) {
      return st.WithContext("announce height " +
                            std::to_string(blk.header.height));
    }
  }
  crash.Hit("issuer.durable.after_announce");
  DurableMetrics::Get().tip_height->Set(
      static_cast<std::int64_t>(blk.header.height));
  return Status::Ok();
}

}  // namespace dcert::core
