#include "driver.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "smr/mempool.h"

namespace perfbench {

using clandag::Bytes;
using clandag::ClientReplyMsg;
using clandag::ClientReplyStatus;
using clandag::TimeMicros;

namespace {

constexpr size_t kTagBytes = 24;  // u32 origin, u32 zero, u64 index, u64 packed id.
constexpr uint64_t kMaxRequestsPerOrigin = 1ull << 26;

void PutU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

OpenLoopDriver::OpenLoopDriver(const DriverOptions& options, TimeMicros start)
    : options_(options),
      rng_(options.seed * 0x9e3779b97f4a7c15ULL + options.origin + 1),
      next_due_(start),
      next_seq_(options.clients, 0) {
  outstanding_.reserve(1 << 12);
}

Bytes OpenLoopDriver::NextFrame(TimeMicros now) {
  const TimeMicros due = next_due_;
  const double gap_s = -std::log1p(-rng_.NextDouble()) / options_.rate_tps;
  next_due_ += std::max<TimeMicros>(1, static_cast<TimeMicros>(gap_s * 1e6));

  const double u = rng_.NextDouble();
  const uint32_t rank = std::min(
      static_cast<uint32_t>(std::pow(u, options_.zipf_skew) * options_.clients),
      options_.clients - 1);
  clandag::ClientRequestMsg request;
  // Disjoint client id spaces per origin; the top byte names the origin node.
  request.client_id = (options_.origin << 24) | rank;
  request.client_seq = next_seq_[rank]++;
  const uint64_t packed = clandag::PackRequestId(request.client_id, request.client_seq);
  const uint64_t index = counts_.sent++;
  request.payload.assign(std::max<size_t>(options_.payload_bytes, kTagBytes), 0);
  uint8_t* p = request.payload.data();
  std::memcpy(p, &options_.origin, sizeof(options_.origin));
  PutU64(p + 8, index);
  PutU64(p + 16, packed);
  for (size_t i = kTagBytes; i < request.payload.size(); ++i) {
    p[i] = static_cast<uint8_t>(packed >> ((i % 8) * 8)) ^ static_cast<uint8_t>(i);
  }

  const bool in_window = InWindow(due);
  if (in_window) {
    ++counts_.attempted;
    late_.emplace_back(due, static_cast<double>(now - due) / 1000.0);
  }
  Bytes frame = request.Encode();
  outstanding_.emplace(packed, Outstanding{due, in_window, 1, frame});
  return frame;
}

void OpenLoopDriver::OnReply(const ClientReplyMsg& reply, TimeMicros now) {
  const uint64_t packed = clandag::PackRequestId(reply.client_id, reply.client_seq);
  auto it = outstanding_.find(packed);
  if (it == outstanding_.end()) {
    ++counts_.unmatched;
    return;
  }
  const bool rejected = reply.status == ClientReplyStatus::kRejectedRate ||
                        reply.status == ClientReplyStatus::kRejectedCapacity;
  if (rejected && it->second.attempts < kMaxAttempts) {
    ++it->second.attempts;
    retries_.emplace(now + std::max<TimeMicros>(reply.retry_after, 1), packed);
    return;
  }
  const Outstanding o = it->second;
  outstanding_.erase(it);
  if (!o.in_window) {
    return;
  }
  switch (reply.status) {
    case ClientReplyStatus::kCommitted:
      ++counts_.committed;
      samples_.push_back(Sample{o.due, now});
      break;
    case ClientReplyStatus::kDuplicate:
      ++counts_.duplicate;
      break;
    case ClientReplyStatus::kExpired:
      ++counts_.expired;
      break;
    default:
      ++counts_.rejected;
      break;
  }
}

uint64_t OpenLoopDriver::Unanswered() const {
  uint64_t n = 0;
  for (const auto& [id, o] : outstanding_) {
    n += o.in_window ? 1 : 0;
  }
  return n;
}

bool ParseRequestTag(const Bytes& data, RequestTag* tag) {
  if (data.size() < kTagBytes) {
    return false;
  }
  std::memcpy(&tag->origin, data.data(), sizeof(tag->origin));
  tag->index = GetU64(data.data() + 8);
  tag->packed_id = GetU64(data.data() + 16);
  return true;
}

void ExecutionAudit::OnExecuted(const clandag::BlockInfo& block) {
  auto txs = clandag::DecodeTxBatch(block.payload);
  if (!txs.has_value()) {
    ++foreign_;
    return;
  }
  const uint64_t slot = 1 + ((block.round << 16) | block.proposer);
  for (const clandag::Transaction& tx : *txs) {
    RequestTag tag;
    // The index bound keeps a corrupt tag from growing the table.
    if (!ParseRequestTag(tx.data, &tag) || tag.origin >= slots_.size() ||
        tag.packed_id != tx.id || tag.index >= kMaxRequestsPerOrigin) {
      ++foreign_;
      continue;
    }
    std::vector<uint64_t>& slots = slots_[tag.origin];
    if (tag.index >= slots.size()) {
      slots.resize(std::max<size_t>(tag.index + 1, slots.size() * 2), 0);
    }
    // Re-executing the same block (WAL replay) is not a duplicate; running
    // the request in a second block is.
    if (slots[tag.index] != 0 && slots[tag.index] != slot) {
      ++duplicates_;
    }
    slots[tag.index] = slot;
  }
}

uint64_t ExecutionAudit::Unsent(uint32_t origin, uint64_t sent) const {
  uint64_t n = 0;
  const std::vector<uint64_t>& slots = slots_[origin];
  for (size_t i = sent; i < slots.size(); ++i) {
    n += slots[i] != 0 ? 1 : 0;
  }
  return n;
}

}  // namespace perfbench
