#include "rbc/avid_rbc.h"

#include <chrono>

#include "common/check.h"

namespace clandag {

namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wire helpers. Disperse: round, hash vector, share index, share bytes.
Bytes EncodeDisperse(Round round, const std::vector<Digest>& hashes, uint32_t index,
                     const Bytes& share) {
  Writer w;
  w.U64(round);
  w.Varint(hashes.size());
  for (const Digest& h : hashes) {
    h.Serialize(w);
  }
  w.U32(index);
  w.Blob(share);
  return w.Take();
}

struct DisperseMsg {
  Round round;
  std::vector<Digest> hashes;
  uint32_t index;
  Bytes share;
};

std::optional<DisperseMsg> DecodeDisperse(const Bytes& payload, uint32_t max_nodes) {
  Reader r(payload);
  DisperseMsg m;
  m.round = r.U64();
  uint64_t count = r.Varint();
  if (count > max_nodes) {
    return std::nullopt;
  }
  m.hashes.reserve(count);
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    m.hashes.push_back(Digest::Parse(r));
  }
  m.index = r.U32();
  m.share = r.Blob();
  if (!r.ok() || !r.AtEnd()) {
    return std::nullopt;
  }
  return m;
}

// Echo: sender, round, hash vector, index, share.
Bytes EncodeAvidEcho(NodeId sender, Round round, const std::vector<Digest>& hashes,
                     uint32_t index, const Bytes& share) {
  Writer w;
  w.U32(sender);
  Bytes disperse = EncodeDisperse(round, hashes, index, share);
  w.Raw(disperse.data(), disperse.size());
  return w.Take();
}

}  // namespace

Digest AvidCommitment(const std::vector<Digest>& share_hashes) {
  Writer w;
  for (const Digest& h : share_hashes) {
    h.Serialize(w);
  }
  return Digest::Of(w.Buffer());
}

AvidRbc::AvidRbc(Runtime& runtime, AvidConfig config, AvidDeliverFn deliver)
    : runtime_(runtime),
      config_(config),
      codec_(config.DataShards(), config.num_nodes - config.DataShards()),
      deliver_(std::move(deliver)) {
  CLANDAG_CHECK(config_.num_nodes > 0 && config_.num_faults * 3 < config_.num_nodes);
}

AvidRbc::Instance& AvidRbc::GetInstance(NodeId sender, Round round) {
  return instances_[{sender, round}];
}

void AvidRbc::Broadcast(Round round, const Bytes& value) {
  const double t0 = NowMicros();
  std::vector<RsShare> shares = codec_.Encode(value);
  coding_micros_ += NowMicros() - t0;

  std::vector<Digest> hashes(shares.size());
  for (size_t i = 0; i < shares.size(); ++i) {
    hashes[i] = Digest::Of(shares[i].data);
  }
  for (NodeId to = 0; to < config_.num_nodes; ++to) {
    runtime_.Send(to, kAvidDisperse, EncodeDisperse(round, hashes, to, shares[to].data));
  }
}

bool AvidRbc::AcceptShare(Instance& inst, const Digest& commitment,
                          const std::vector<Digest>& hashes, uint32_t index, Bytes share) {
  if (index >= config_.num_nodes || hashes.size() != config_.num_nodes) {
    return false;
  }
  if (Digest::Of(share) != hashes[index]) {
    return false;  // Corrupted or mismatched share.
  }
  if (!inst.commitment.has_value()) {
    inst.commitment = commitment;
    inst.share_hashes = hashes;
  } else if (*inst.commitment != commitment) {
    return false;  // Conflicting dispersal for this instance: keep the first.
  }
  inst.shares.emplace(index, std::move(share));
  return true;
}

bool AvidRbc::HandleMessage(NodeId from, MsgType type, const Bytes& payload) {
  switch (type) {
    case kAvidDisperse:
      OnDisperse(from, payload);
      return true;
    case kAvidEcho:
      OnEcho(from, payload);
      return true;
    case kAvidReady:
      OnReady(from, payload);
      return true;
    default:
      return false;
  }
}

void AvidRbc::OnDisperse(NodeId from, const Bytes& payload) {
  auto msg = DecodeDisperse(payload, config_.num_nodes);
  if (!msg.has_value() || msg->index != runtime_.id()) {
    return;
  }
  Instance& inst = GetInstance(from, msg->round);
  const Digest commitment = AvidCommitment(msg->hashes);
  if (!AcceptShare(inst, commitment, msg->hashes, msg->index, std::move(msg->share))) {
    return;
  }
  if (!inst.echoed) {
    inst.echoed = true;
    // Disperse our share to everyone: after 2f+1 honest echoes, any party
    // holds >= f+1 = k verified shares and can reconstruct.
    runtime_.Broadcast(kAvidEcho, EncodeAvidEcho(from, msg->round, inst.share_hashes,
                                                 runtime_.id(), inst.shares[runtime_.id()]));
  }
}

void AvidRbc::OnEcho(NodeId from, const Bytes& payload) {
  Reader prefix(payload);
  const NodeId sender = prefix.U32();
  if (!prefix.ok() || sender >= config_.num_nodes) {
    return;
  }
  Bytes rest(payload.begin() + 4, payload.end());
  auto msg = DecodeDisperse(rest, config_.num_nodes);
  if (!msg.has_value() || msg->index != from) {
    return;  // An echo must carry the echoer's own share.
  }
  Instance& inst = GetInstance(sender, msg->round);
  const Digest commitment = AvidCommitment(msg->hashes);
  if (!AcceptShare(inst, commitment, msg->hashes, msg->index, std::move(msg->share))) {
    return;
  }
  auto [it, inserted] = inst.echo_votes.try_emplace(commitment, config_.num_nodes);
  if (!it->second.Add(from, false, std::nullopt)) {
    return;
  }
  if (it->second.Count() >= config_.Quorum()) {
    SendReady(sender, msg->round, commitment, inst);
  }
  TryDeliver(sender, msg->round, inst);
}

void AvidRbc::SendReady(NodeId sender, Round round, const Digest& commitment, Instance& inst) {
  if (inst.ready_sent) {
    return;
  }
  inst.ready_sent = true;
  RbcVoteMsg ready;
  ready.sender = sender;
  ready.round = round;
  ready.digest = commitment;
  runtime_.Broadcast(kAvidReady, ready.Encode());
}

void AvidRbc::OnReady(NodeId from, const Bytes& payload) {
  auto msg = RbcVoteMsg::Decode(payload);
  if (!msg.has_value() || msg->sender >= config_.num_nodes) {
    return;
  }
  Instance& inst = GetInstance(msg->sender, msg->round);
  auto [it, inserted] = inst.ready_votes.try_emplace(msg->digest, config_.num_nodes);
  if (!it->second.Add(from, false, std::nullopt)) {
    return;
  }
  if (it->second.Count() >= config_.ReadyAmplify()) {
    SendReady(msg->sender, msg->round, msg->digest, inst);
  }
  TryDeliver(msg->sender, msg->round, inst);
}

void AvidRbc::TryDeliver(NodeId sender, Round round, Instance& inst) {
  if (inst.delivered || !inst.commitment.has_value()) {
    return;
  }
  auto ready_it = inst.ready_votes.find(*inst.commitment);
  if (ready_it == inst.ready_votes.end() || ready_it->second.Count() < config_.Quorum()) {
    return;
  }
  if (inst.shares.size() < config_.DataShards()) {
    return;  // More echoes needed before reconstruction.
  }
  std::vector<RsShare> shares;
  shares.reserve(inst.shares.size());
  for (auto& [index, data] : inst.shares) {
    shares.push_back(RsShare{index, data});
  }
  const double t0 = NowMicros();
  std::optional<Bytes> value = codec_.Decode(shares);
  coding_micros_ += NowMicros() - t0;
  if (!value.has_value()) {
    return;
  }
  inst.delivered = true;
  deliver_(sender, round, *inst.commitment, *value);
}

}  // namespace clandag
