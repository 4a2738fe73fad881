// Request/reply envelope for the SP serving protocol. A request frame is
// `u8 op || body`; a reply frame is `u8 code || body` where an OK body is
// op-specific and a busy/error body is a human-readable message.
// Announcements carry the full block plus the CI's block and index
// certificates so the server can validate them exactly as a client would
// before serving them.
//
// A query reply is self-contained: it names the certified tip its proof was
// built at, so a client verifies one reply without a second round trip. The
// tip travels either as its tip fields (header, block cert, index digest,
// index cert: exactly the kTipFetch reply body) or, when the client already
// holds that tip, as its key K = SHA-256 of those exact field bytes:
//
//   query request  op || u64 account || u64 from || u64 to || [K: 32 bytes]
//   query reply    kOk || u8 form || tip || blob(proof)
//                    form 0: tip = the tip fields
//                    form 1: tip = K, only when it equals the request's K
//
// The SP encodes its tip once per certified block, so an unchanged tip
// costs 33 bytes per reply instead of the fields. A by-reference reply can
// only name the tip the client offered: the client resolves K to the tip it
// decoded under that key and validates that tip as it would any other, so a
// proof built at any other tip fails verification.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "chain/block.h"
#include "common/bytes.h"
#include "common/status.h"
#include "dcert/certificate.h"
#include "obs/metrics.h"
#include "query/historical_index.h"

namespace dcert::svc {

enum class Op : std::uint8_t {
  kTipFetch = 1,    // -> TipReply
  kHistorical = 2,  // window query -> QueryReply (tip or its key + proof)
  kAggregate = 3,   // count/sum query -> QueryReply (tip or its key + proof)
  kAnnounce = 4,    // certified block announcement -> AckReply
  kStats = 5,       // live metrics snapshot -> StatsReply
  kShardMap = 6,    // fetch the fleet shard map -> opaque map bytes
  kShardScoped = 7,  // shard-addressed envelope around a query request
  kHealth = 8,       // lightweight liveness/health probe -> HealthReply
};

enum class Code : std::uint8_t {
  kOk = 0,
  kBusy = 1,   // admission control shed the request; retry later
  kError = 2,  // malformed request or server-side failure
  /// The request named a shard-map version or shard this server does not
  /// hold (resharding happened, or the router misrouted). Retryable after
  /// the client refreshes its shard map — never a permanent failure.
  kStaleShard = 3,
};

/// Everything a superlight client needs to trust replies from this server:
/// the certified tip header, its block certificate, and the certified
/// historical-index digest with its index certificate.
struct TipInfo {
  chain::BlockHeader header;
  core::BlockCertificate block_cert;
  Hash256 index_digest;
  core::IndexCertificate index_cert;

  bool operator==(const TipInfo&) const = default;
};

/// A certified tip's wire encoding, made once per tip by the SP: the tip
/// fields every tip reply and full-form query reply carries, and their key.
struct EncodedTip {
  Bytes fields;
  Hash256 key;  // TipKey(fields)
};

/// A tip a client holds: the TipInfo decoded from field bytes whose TipKey
/// is `key`.
struct HeldTip {
  Hash256 key;
  TipInfo tip;
};

struct QueryRequest {
  Op op = Op::kHistorical;
  std::uint64_t account = 0;
  std::uint64_t from_height = 0;
  std::uint64_t to_height = 0;
};

/// A decoded query request frame: the query plus the key of the tip the
/// client holds, when it offered one.
struct QueryFrame {
  QueryRequest query;
  std::optional<Hash256> held_tip_key;
};

/// The slice of a fleet shard map one server enforces: which keys and block
/// heights it owns, under which map version. Plain data so svc needs no
/// dependency on the fleet layer that computes it (fleet::ShardMap does).
/// map_version 0 means "unsharded": the server owns everything.
struct ShardAssignment {
  std::uint64_t map_version = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t total_shards = 1;
  std::uint64_t key_lo = 0;  // inclusive account-word range
  std::uint64_t key_hi = ~std::uint64_t{0};
  std::uint64_t height_lo = 0;  // inclusive block-height band
  std::uint64_t height_hi = ~std::uint64_t{0};

  bool Sharded() const { return map_version != 0; }
  bool OwnsKey(std::uint64_t account) const {
    return account >= key_lo && account <= key_hi;
  }
  /// The whole query window must sit inside this shard's height band;
  /// clients split windows at band boundaries before asking.
  bool OwnsWindow(std::uint64_t from, std::uint64_t to) const {
    return from >= height_lo && to <= height_hi;
  }
  bool OwnsWrite(std::uint64_t account, std::uint64_t height) const {
    return OwnsKey(account) && height >= height_lo && height <= height_hi;
  }
};

/// Decoded kShardScoped envelope: the addressed shard plus the inner query
/// frame the shard should process after ownership checks.
struct ShardScopedRequest {
  std::uint64_t map_version = 0;
  std::uint32_t shard_id = 0;
  Bytes inner;
};

struct AnnounceRequest {
  chain::Block block;
  core::BlockCertificate block_cert;
  Hash256 index_digest;
  core::IndexCertificate index_cert;
};

/// A decoded OK query reply: the certified tip the server answered at and the
/// proof it built against that tip's index digest, read under one lock. A
/// verifier validates `tip`'s certificates, then checks `proof` against
/// `tip.index_digest`. `tip_key` is the TipKey of the tip's field bytes:
/// equal keys mean byte-identical tips, so a tip validated once under a key
/// needs no second validation.
struct QueryReply {
  TipInfo tip;
  Hash256 tip_key;
  query::HistoricalQueryProof proof;
};

/// A decoded reply envelope; `body` is the op-specific OK payload.
struct ReplyEnvelope {
  Code code = Code::kError;
  std::string message;  // busy/error only
  Bytes body;           // ok only
};

// Requests.
Bytes EncodeTipFetchRequest();
Bytes EncodeStatsRequest();
/// `held_tip_key`: the key of the tip the client holds, if any; the server
/// then answers by reference when its tip has the same key.
Bytes EncodeQueryRequest(const QueryRequest& req,
                         const std::optional<Hash256>& held_tip_key =
                             std::nullopt);
Bytes EncodeAnnounceRequest(const AnnounceRequest& req);
Bytes EncodeShardMapRequest();
/// Wraps a complete inner request frame in a shard-addressed envelope; the
/// router routes on the header without touching the inner frame, and the
/// shard checks (map_version, shard_id) before processing it.
Bytes EncodeShardScopedRequest(std::uint64_t map_version,
                               std::uint32_t shard_id, ByteView inner);
/// The op byte of a request frame (without consuming the body).
Result<Op> PeekOp(ByteView frame);
/// The trailing tip key is exactly 0 or 32 bytes.
Result<QueryFrame> DecodeQueryRequest(ByteView frame);
Result<AnnounceRequest> DecodeAnnounceRequest(ByteView frame);
Result<ShardScopedRequest> DecodeShardScopedRequest(ByteView frame);

// Replies.
Bytes EncodeStatusReply(Code code, const std::string& message);
/// The tip fields (header, block cert, index digest, index cert) and their
/// key.
EncodedTip EncodeTip(const TipInfo& tip);
/// K: the SHA-256 of a tip's exact field bytes.
Hash256 TipKey(ByteView fields);
/// OK body: the tip fields.
Bytes EncodeTipReply(const EncodedTip& tip);
/// OK query reply for a proof built at `tip`: by reference (form 1, the key)
/// when the request offered `tip.key` as `held_tip_key`, else in full (form
/// 0, the fields); then the serialized proof.
Bytes AssembleQueryReply(const EncodedTip& tip,
                         const std::optional<Hash256>& held_tip_key,
                         ByteView proof);
Bytes EncodeAckReply(std::uint64_t tip_height);
/// OK body is the opaque serialized fleet shard map (fleet::ShardMap bytes);
/// svc carries it without interpreting it so the dependency stays one-way.
Bytes EncodeShardMapReply(ByteView map_bytes);
Result<ReplyEnvelope> DecodeReplyEnvelope(ByteView frame);
Result<Bytes> DecodeShardMapBody(ByteView body);
Result<TipInfo> DecodeTipBody(ByteView body);
/// Decodes an OK query body against the tip the client offered. A
/// by-reference tip must name `held`'s key, or the body is garbled; a full
/// tip whose field bytes hash to `held`'s key reuses `held`'s TipInfo
/// without decoding the fields again. The form byte is only 0 or 1.
Result<QueryReply> DecodeQueryReply(ByteView body,
                                    const std::optional<HeldTip>& held);
Result<std::uint64_t> DecodeAckBody(ByteView body);

/// A lightweight health probe reply: enough for a router or operator to
/// judge replica liveness, load, and version skew without pulling the full
/// metrics snapshot. `shed` vs `served` gives the shed rate; `build` is the
/// human-readable build string (git SHA + sanitizer + build type).
struct HealthInfo {
  std::uint64_t tip_height = 0;
  std::uint64_t uptime_ms = 0;
  std::uint64_t inflight = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::string build;
};

Bytes EncodeHealthRequest();
Bytes EncodeHealthReply(const HealthInfo& info);
Result<HealthInfo> DecodeHealthBody(ByteView body);

/// Metrics snapshots cross the wire as counters/gauges plus full sparse
/// histogram buckets, so the client can compute any percentile (and render
/// Prometheus text) without the server choosing quantiles for it.
Bytes EncodeStatsReply(const obs::MetricsSnapshot& snap);
Result<obs::MetricsSnapshot> DecodeStatsBody(ByteView body);

}  // namespace dcert::svc
