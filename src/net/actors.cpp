#include "net/actors.h"

#include "common/serialize.h"

namespace dcert::net {

namespace {

constexpr std::uint64_t kMineTimer = 1;

}  // namespace

Bytes EncodeCertAnnouncement(const chain::BlockHeader& hdr,
                             const core::BlockCertificate& cert) {
  Encoder enc;
  enc.Blob(hdr.Serialize());
  enc.Blob(cert.Serialize());
  return enc.Take();
}

Result<std::pair<chain::BlockHeader, core::BlockCertificate>>
DecodeCertAnnouncement(ByteView payload) {
  using R = Result<std::pair<chain::BlockHeader, core::BlockCertificate>>;
  try {
    Decoder dec(payload);
    Bytes hdr_bytes = dec.Blob();
    Bytes cert_bytes = dec.Blob();
    dec.ExpectEnd();
    auto hdr = chain::BlockHeader::Deserialize(hdr_bytes);
    if (!hdr) return R(hdr.status());
    auto cert = core::BlockCertificate::Deserialize(cert_bytes);
    if (!cert) return R(cert.status());
    return std::make_pair(hdr.value(), cert.value());
  } catch (const DecodeError& e) {
    return R::Error(std::string("cert announcement: ") + e.what());
  }
}

MinerActor::MinerActor(std::string name, chain::ChainConfig config,
                       std::shared_ptr<const chain::ContractRegistry> registry,
                       workloads::WorkloadGenerator::Params gen_params,
                       std::size_t accounts, std::size_t txs_per_block,
                       SimTime block_interval_us)
    : name_(std::move(name)),
      node_(config, std::move(registry)),
      miner_(node_),
      pool_(accounts, 1234),
      gen_(gen_params, pool_),
      txs_per_block_(txs_per_block),
      interval_us_(block_interval_us) {}

void MinerActor::OnStart(SimNetwork& net) {
  net.ScheduleTimer(name_, interval_us_, kMineTimer);
}

void MinerActor::OnMessage(SimNetwork& net, const Message& msg) {
  (void)net;
  (void)msg;  // the miner ignores gossip in this single-miner simulation
}

void MinerActor::OnTimer(SimNetwork& net, std::uint64_t timer_id) {
  if (timer_id != kMineTimer) return;
  auto block = miner_.MineBlock(gen_.NextBlockTxs(txs_per_block_),
                                1700000000 + node_.Height() * 15);
  if (block.ok() && node_.SubmitBlock(block.value()).ok()) {
    net.Broadcast(name_, kTopicBlock, block.value().Serialize());
  }
  net.ScheduleTimer(name_, interval_us_, kMineTimer);
}

FullNodeActor::FullNodeActor(std::string name, chain::ChainConfig config,
                             std::shared_ptr<const chain::ContractRegistry> registry)
    : name_(std::move(name)), node_(config, std::move(registry)) {}

void FullNodeActor::OnMessage(SimNetwork& net, const Message& msg) {
  (void)net;
  if (msg.topic != kTopicBlock) return;
  auto block = chain::Block::Deserialize(msg.payload);
  if (!block) {
    ++rejected_;
    return;
  }
  pending_.emplace(block.value().header.height, std::move(block.value()));
  Drain();
}

void FullNodeActor::Drain() {
  while (true) {
    auto it = pending_.find(node_.Height() + 1);
    if (it == pending_.end()) break;
    if (!node_.SubmitBlock(it->second).ok()) ++rejected_;
    pending_.erase(it);
  }
}

CiActor::CiActor(std::string name, chain::ChainConfig config,
                 std::shared_ptr<const chain::ContractRegistry> registry)
    : name_(std::move(name)), ci_(config, std::move(registry)) {}

void CiActor::OnMessage(SimNetwork& net, const Message& msg) {
  if (msg.topic != kTopicBlock) return;
  auto block = chain::Block::Deserialize(msg.payload);
  if (!block) return;
  pending_.emplace(block.value().header.height, std::move(block.value()));
  Drain(net);
}

void CiActor::Drain(SimNetwork& net) {
  while (true) {
    auto it = pending_.find(ci_.Node().Height() + 1);
    if (it == pending_.end()) break;
    auto cert = ci_.ProcessBlock(it->second);
    if (cert.ok()) {
      ++certs_issued_;
      net.Broadcast(name_, kTopicCert,
                    EncodeCertAnnouncement(it->second.header, cert.value()));
    }
    pending_.erase(it);
  }
}

SpActor::SpActor(std::string name)
    : name_(std::move(name)),
      index_(std::make_shared<query::HistoricalIndex>("sp-historical")) {}

void SpActor::OnMessage(SimNetwork& net, const Message& msg) {
  if (msg.topic == kTopicBlock) {
    auto block = chain::Block::Deserialize(msg.payload);
    if (!block) return;
    pending_.emplace(block.value().header.height, std::move(block.value()));
    Drain();
    return;
  }
  if (msg.topic == kTopicQuery) {
    auto request = DecodeHistoricalQuery(msg.payload);
    if (!request) return;
    query::HistoricalQueryProof proof =
        index_->Query(request.value().account, request.value().from_height,
                      request.value().to_height);
    ++queries_served_;
    net.Send(name_, msg.from, kTopicQueryReply,
             EncodeHistoricalReply(request.value().request_id, proof));
  }
}

void SpActor::Drain() {
  while (true) {
    auto it = pending_.find(next_height_);
    if (it == pending_.end()) break;
    index_->ApplyBlock(it->second);
    pending_.erase(it);
    ++next_height_;
  }
}

Bytes EncodeHistoricalQuery(std::uint64_t request_id, std::uint64_t account,
                            std::uint64_t from_height, std::uint64_t to_height) {
  Encoder enc;
  enc.U64(request_id);
  enc.U64(account);
  enc.U64(from_height);
  enc.U64(to_height);
  return enc.Take();
}

Result<HistoricalQueryRequest> DecodeHistoricalQuery(ByteView payload) {
  using R = Result<HistoricalQueryRequest>;
  try {
    Decoder dec(payload);
    HistoricalQueryRequest req;
    req.request_id = dec.U64();
    req.account = dec.U64();
    req.from_height = dec.U64();
    req.to_height = dec.U64();
    dec.ExpectEnd();
    return req;
  } catch (const DecodeError& e) {
    return R::Error(std::string("query request: ") + e.what());
  }
}

Bytes EncodeHistoricalReply(std::uint64_t request_id,
                            const query::HistoricalQueryProof& proof) {
  Encoder enc;
  enc.U64(request_id);
  enc.Blob(proof.Serialize());
  return enc.Take();
}

Result<std::pair<std::uint64_t, query::HistoricalQueryProof>>
DecodeHistoricalReply(ByteView payload) {
  using R = Result<std::pair<std::uint64_t, query::HistoricalQueryProof>>;
  try {
    Decoder dec(payload);
    std::uint64_t request_id = dec.U64();
    Bytes proof_bytes = dec.Blob();
    dec.ExpectEnd();
    auto proof = query::HistoricalQueryProof::Deserialize(proof_bytes);
    if (!proof) return R(proof.status());
    return std::make_pair(request_id, std::move(proof.value()));
  } catch (const DecodeError& e) {
    return R::Error(std::string("query reply: ") + e.what());
  }
}

SuperlightActor::SuperlightActor(std::string name)
    : name_(std::move(name)), client_(core::ExpectedEnclaveMeasurement()) {}

void SuperlightActor::OnMessage(SimNetwork& net, const Message& msg) {
  (void)net;
  if (msg.topic != kTopicCert) return;
  auto announcement = DecodeCertAnnouncement(msg.payload);
  if (!announcement) {
    ++rejected_invalid_;
    return;
  }
  const auto& [hdr, cert] = announcement.value();
  Status st = client_.ValidateAndAccept(hdr, cert);
  if (st) {
    ++accepted_;
  } else if (client_.HasState() && hdr.height <= client_.Height()) {
    ++rejected_stale_;  // chain selection: certificates may arrive reordered
  } else {
    ++rejected_invalid_;
  }
}

}  // namespace dcert::net
