#include "svc/protocol.h"

#include "common/serialize.h"
#include "crypto/sha256.h"

namespace dcert::svc {

namespace {

bool ValidOp(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Op::kTipFetch) &&
         op <= static_cast<std::uint8_t>(Op::kHealth);
}

/// Caps on the decoded snapshot so a malicious stats reply cannot balloon
/// client memory (a real snapshot has tens of metrics).
constexpr std::size_t kMaxStatsMetrics = 4096;
constexpr std::size_t kMaxStatsBuckets = 8192;

/// How a query reply carries its tip.
enum class TipForm : std::uint8_t {
  kFull = 0,         // the tip fields
  kByReference = 1,  // the key of a tip the client offered
};

/// The tip fields as views into the input they were read from.
struct TipFieldViews {
  ByteView header;
  ByteView block_cert;
  Hash256 index_digest;
  ByteView index_cert;
};

/// Reads the tip fields without copying; truncation throws DecodeError.
TipFieldViews ReadTipFields(Decoder& dec) {
  TipFieldViews v;
  v.header = dec.BlobView();
  v.block_cert = dec.BlobView();
  v.index_digest = dec.HashField();
  v.index_cert = dec.BlobView();
  return v;
}

/// Deserializes what ReadTipFields read; a field that does not deserialize
/// comes back as an error.
Result<TipInfo> DecodeTipFields(const TipFieldViews& v) {
  using R = Result<TipInfo>;
  auto hdr = chain::BlockHeader::Deserialize(v.header);
  if (!hdr) return R(hdr.status());
  auto bcert = core::BlockCertificate::Deserialize(v.block_cert);
  if (!bcert) return R(bcert.status());
  auto icert = core::IndexCertificate::Deserialize(v.index_cert);
  if (!icert) return R(icert.status());
  TipInfo tip;
  tip.header = hdr.value();
  tip.block_cert = std::move(bcert.value());
  tip.index_digest = v.index_digest;
  tip.index_cert = std::move(icert.value());
  return tip;
}

}  // namespace

Bytes EncodeTipFetchRequest() {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Op::kTipFetch));
  return enc.Take();
}

Bytes EncodeStatsRequest() {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Op::kStats));
  return enc.Take();
}

Bytes EncodeShardMapRequest() {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Op::kShardMap));
  return enc.Take();
}

Bytes EncodeShardScopedRequest(std::uint64_t map_version,
                               std::uint32_t shard_id, ByteView inner) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Op::kShardScoped));
  enc.U64(map_version);
  enc.U32(shard_id);
  enc.Blob(inner);
  return enc.Take();
}

Bytes EncodeQueryRequest(const QueryRequest& req,
                         const std::optional<Hash256>& held_tip_key) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(req.op));
  enc.U64(req.account);
  enc.U64(req.from_height);
  enc.U64(req.to_height);
  if (held_tip_key) enc.HashField(*held_tip_key);
  return enc.Take();
}

Bytes EncodeAnnounceRequest(const AnnounceRequest& req) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Op::kAnnounce));
  enc.Blob(req.block.Serialize());
  enc.Blob(req.block_cert.Serialize());
  enc.HashField(req.index_digest);
  enc.Blob(req.index_cert.Serialize());
  return enc.Take();
}

Result<Op> PeekOp(ByteView frame) {
  if (frame.empty() || !ValidOp(frame[0])) {
    return Result<Op>::Error("request: unknown op");
  }
  return static_cast<Op>(frame[0]);
}

Result<QueryFrame> DecodeQueryRequest(ByteView frame) {
  using R = Result<QueryFrame>;
  try {
    Decoder dec(frame);
    QueryFrame out;
    QueryRequest& req = out.query;
    const std::uint8_t op = dec.U8();
    if (op != static_cast<std::uint8_t>(Op::kHistorical) &&
        op != static_cast<std::uint8_t>(Op::kAggregate)) {
      return R::Error("query request: wrong op");
    }
    req.op = static_cast<Op>(op);
    req.account = dec.U64();
    req.from_height = dec.U64();
    req.to_height = dec.U64();
    if (!dec.AtEnd()) out.held_tip_key = dec.HashField();
    dec.ExpectEnd();
    return out;
  } catch (const DecodeError& e) {
    return R::Error(std::string("query request: ") + e.what());
  }
}

Result<AnnounceRequest> DecodeAnnounceRequest(ByteView frame) {
  using R = Result<AnnounceRequest>;
  try {
    Decoder dec(frame);
    if (dec.U8() != static_cast<std::uint8_t>(Op::kAnnounce)) {
      return R::Error("announce request: wrong op");
    }
    Bytes block_bytes = dec.Blob();
    Bytes bcert_bytes = dec.Blob();
    Hash256 digest = dec.HashField();
    Bytes icert_bytes = dec.Blob();
    dec.ExpectEnd();
    auto block = chain::Block::Deserialize(block_bytes);
    if (!block) return R(block.status());
    auto bcert = core::BlockCertificate::Deserialize(bcert_bytes);
    if (!bcert) return R(bcert.status());
    auto icert = core::IndexCertificate::Deserialize(icert_bytes);
    if (!icert) return R(icert.status());
    AnnounceRequest req;
    req.block = std::move(block.value());
    req.block_cert = std::move(bcert.value());
    req.index_digest = digest;
    req.index_cert = std::move(icert.value());
    return req;
  } catch (const DecodeError& e) {
    return R::Error(std::string("announce request: ") + e.what());
  }
}

Result<ShardScopedRequest> DecodeShardScopedRequest(ByteView frame) {
  using R = Result<ShardScopedRequest>;
  try {
    Decoder dec(frame);
    if (dec.U8() != static_cast<std::uint8_t>(Op::kShardScoped)) {
      return R::Error("shard-scoped request: wrong op");
    }
    ShardScopedRequest req;
    req.map_version = dec.U64();
    req.shard_id = dec.U32();
    req.inner = dec.Blob();
    dec.ExpectEnd();
    if (req.inner.empty()) {
      return R::Error("shard-scoped request: empty inner frame");
    }
    return req;
  } catch (const DecodeError& e) {
    return R::Error(std::string("shard-scoped request: ") + e.what());
  }
}

Bytes EncodeStatusReply(Code code, const std::string& message) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(code));
  enc.Str(message);
  return enc.Take();
}

Hash256 TipKey(ByteView fields) { return crypto::Sha256::Digest(fields); }

EncodedTip EncodeTip(const TipInfo& tip) {
  Encoder enc;
  enc.Blob(tip.header.Serialize());
  enc.Blob(tip.block_cert.Serialize());
  enc.HashField(tip.index_digest);
  enc.Blob(tip.index_cert.Serialize());
  EncodedTip out;
  out.fields = enc.Take();
  out.key = TipKey(out.fields);
  return out;
}

Bytes EncodeTipReply(const EncodedTip& tip) {
  Encoder enc;
  enc.Reserve(1 + tip.fields.size());
  enc.U8(static_cast<std::uint8_t>(Code::kOk));
  enc.Raw(tip.fields);
  return enc.Take();
}

Bytes AssembleQueryReply(const EncodedTip& tip,
                         const std::optional<Hash256>& held_tip_key,
                         ByteView proof) {
  const bool by_reference = held_tip_key == tip.key;
  Encoder enc;
  enc.Reserve(2 + (by_reference ? Hash256::kSize : tip.fields.size()) + 4 +
              proof.size());
  enc.U8(static_cast<std::uint8_t>(Code::kOk));
  if (by_reference) {
    enc.U8(static_cast<std::uint8_t>(TipForm::kByReference));
    enc.HashField(tip.key);
  } else {
    enc.U8(static_cast<std::uint8_t>(TipForm::kFull));
    enc.Raw(tip.fields);
  }
  enc.Blob(proof);
  return enc.Take();
}

Bytes EncodeAckReply(std::uint64_t tip_height) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Code::kOk));
  enc.U64(tip_height);
  return enc.Take();
}

Bytes EncodeShardMapReply(ByteView map_bytes) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Code::kOk));
  enc.Blob(map_bytes);
  return enc.Take();
}

Result<Bytes> DecodeShardMapBody(ByteView body) {
  using R = Result<Bytes>;
  try {
    Decoder dec(body);
    Bytes map_bytes = dec.Blob();
    dec.ExpectEnd();
    if (map_bytes.empty()) return R::Error("shard map reply: empty map");
    return map_bytes;
  } catch (const DecodeError& e) {
    return R::Error(std::string("shard map reply: ") + e.what());
  }
}

Result<ReplyEnvelope> DecodeReplyEnvelope(ByteView frame) {
  using R = Result<ReplyEnvelope>;
  try {
    Decoder dec(frame);
    ReplyEnvelope env;
    const std::uint8_t code = dec.U8();
    if (code > static_cast<std::uint8_t>(Code::kStaleShard)) {
      return R::Error("reply: unknown status code");
    }
    env.code = static_cast<Code>(code);
    if (env.code == Code::kOk) {
      env.body = dec.Raw(dec.Remaining());
    } else {
      env.message = dec.Str();
      dec.ExpectEnd();
    }
    return env;
  } catch (const DecodeError& e) {
    return R::Error(std::string("reply: ") + e.what());
  }
}

Result<TipInfo> DecodeTipBody(ByteView body) {
  try {
    Decoder dec(body);
    const TipFieldViews fields = ReadTipFields(dec);
    dec.ExpectEnd();
    return DecodeTipFields(fields);
  } catch (const DecodeError& e) {
    return Result<TipInfo>::Error(std::string("tip reply: ") + e.what());
  }
}

Result<QueryReply> DecodeQueryReply(ByteView body,
                                    const std::optional<HeldTip>& held) {
  using R = Result<QueryReply>;
  try {
    Decoder dec(body);
    QueryReply out;
    const std::uint8_t form = dec.U8();
    std::optional<TipFieldViews> fields;
    if (form == static_cast<std::uint8_t>(TipForm::kByReference)) {
      out.tip_key = dec.HashField();
    } else if (form == static_cast<std::uint8_t>(TipForm::kFull)) {
      const std::size_t start = body.size() - dec.Remaining();
      fields = ReadTipFields(dec);
      out.tip_key = TipKey(body.subspan(start, body.size() - dec.Remaining() -
                                                   start));
    } else {
      return R::Error("query reply: unknown tip form");
    }
    const ByteView proof_bytes = dec.BlobView();
    dec.ExpectEnd();
    if (held && out.tip_key == held->key) {
      out.tip = held->tip;
    } else if (fields) {
      auto tip = DecodeTipFields(*fields);
      if (!tip) return R(tip.status());
      out.tip = tip.value();
    } else {
      return R::Error("query reply: names a tip the client does not hold");
    }
    auto proof = query::HistoricalQueryProof::Deserialize(proof_bytes);
    if (!proof) return R(proof.status());
    out.proof = std::move(proof.value());
    return out;
  } catch (const DecodeError& e) {
    return R::Error(std::string("query reply: ") + e.what());
  }
}

Result<std::uint64_t> DecodeAckBody(ByteView body) {
  using R = Result<std::uint64_t>;
  try {
    Decoder dec(body);
    std::uint64_t tip_height = dec.U64();
    dec.ExpectEnd();
    return tip_height;
  } catch (const DecodeError& e) {
    return R::Error(std::string("ack reply: ") + e.what());
  }
}

Bytes EncodeHealthRequest() {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Op::kHealth));
  return enc.Take();
}

Bytes EncodeHealthReply(const HealthInfo& info) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Code::kOk));
  enc.U64(info.tip_height);
  enc.U64(info.uptime_ms);
  enc.U64(info.inflight);
  enc.U64(info.served);
  enc.U64(info.shed);
  enc.Str(info.build);
  return enc.Take();
}

Result<HealthInfo> DecodeHealthBody(ByteView body) {
  using R = Result<HealthInfo>;
  try {
    Decoder dec(body);
    HealthInfo info;
    info.tip_height = dec.U64();
    info.uptime_ms = dec.U64();
    info.inflight = dec.U64();
    info.served = dec.U64();
    info.shed = dec.U64();
    info.build = dec.Str();
    dec.ExpectEnd();
    return info;
  } catch (const DecodeError& e) {
    return R::Error(std::string("health reply: ") + e.what());
  }
}

Bytes EncodeStatsReply(const obs::MetricsSnapshot& snap) {
  Encoder enc;
  enc.U8(static_cast<std::uint8_t>(Code::kOk));
  enc.U32(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, v] : snap.counters) {
    enc.Str(name);
    enc.U64(v);
  }
  enc.U32(static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, v] : snap.gauges) {
    enc.Str(name);
    enc.U64(static_cast<std::uint64_t>(v));  // two's complement round trip
  }
  enc.U32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    enc.Str(name);
    enc.U64(h.count);
    enc.U64(h.sum);
    enc.U64(h.min);
    enc.U64(h.max);
    enc.U32(static_cast<std::uint32_t>(h.buckets.size()));
    for (const auto& [bound, n] : h.buckets) {
      enc.U64(bound);
      enc.U64(n);
    }
  }
  return enc.Take();
}

Result<obs::MetricsSnapshot> DecodeStatsBody(ByteView body) {
  using R = Result<obs::MetricsSnapshot>;
  try {
    Decoder dec(body);
    obs::MetricsSnapshot snap;
    const std::uint32_t n_counters = dec.U32();
    if (n_counters > kMaxStatsMetrics) return R::Error("stats reply: too many counters");
    for (std::uint32_t i = 0; i < n_counters; ++i) {
      std::string name = dec.Str();
      snap.counters[std::move(name)] = dec.U64();
    }
    const std::uint32_t n_gauges = dec.U32();
    if (n_gauges > kMaxStatsMetrics) return R::Error("stats reply: too many gauges");
    for (std::uint32_t i = 0; i < n_gauges; ++i) {
      std::string name = dec.Str();
      snap.gauges[std::move(name)] = static_cast<std::int64_t>(dec.U64());
    }
    const std::uint32_t n_hists = dec.U32();
    if (n_hists > kMaxStatsMetrics) return R::Error("stats reply: too many histograms");
    for (std::uint32_t i = 0; i < n_hists; ++i) {
      std::string name = dec.Str();
      obs::HistogramSnapshot h;
      h.count = dec.U64();
      h.sum = dec.U64();
      h.min = dec.U64();
      h.max = dec.U64();
      const std::uint32_t n_buckets = dec.U32();
      if (n_buckets > kMaxStatsBuckets) {
        return R::Error("stats reply: too many histogram buckets");
      }
      std::uint64_t prev_bound = 0;
      h.buckets.reserve(n_buckets);
      for (std::uint32_t b = 0; b < n_buckets; ++b) {
        const std::uint64_t bound = dec.U64();
        const std::uint64_t count = dec.U64();
        if (b != 0 && bound <= prev_bound) {
          return R::Error("stats reply: histogram buckets not ascending");
        }
        prev_bound = bound;
        h.buckets.emplace_back(bound, count);
      }
      snap.histograms[std::move(name)] = std::move(h);
    }
    dec.ExpectEnd();
    return snap;
  } catch (const DecodeError& e) {
    return R::Error(std::string("stats reply: ") + e.what());
  }
}

}  // namespace dcert::svc
