#include "ingress/dedup.h"

#include "common/check.h"

namespace clandag {

DedupFilter::DedupFilter(DedupOptions options) : options_(options) {
  CLANDAG_CHECK(options_.max_tracked_clients > 0);
}

DedupVerdict DedupFilter::Classify(const Entry* entry, uint64_t seq) {
  if (entry == nullptr) {
    return DedupVerdict::kFresh;
  }
  if (seq > entry->max_seq) {
    return DedupVerdict::kFresh;
  }
  const uint64_t age = entry->max_seq - seq;
  if (age >= kDedupWindowBits) {
    return DedupVerdict::kStale;
  }
  return ((entry->bits >> age) & 1u) != 0 ? DedupVerdict::kDuplicate : DedupVerdict::kFresh;
}

DedupVerdict DedupFilter::Check(uint64_t client, uint64_t seq, TimeMicros now) {
  auto it = entries_.find(client);
  const Entry* entry = it == entries_.end() ? nullptr : &it->second;
  if (entry == nullptr && entries_.size() >= options_.max_tracked_clients &&
      !EvictIdle(now)) {
    return DedupVerdict::kUntracked;
  }
  return Classify(entry, seq);
}

void DedupFilter::Record(uint64_t client, uint64_t seq, TimeMicros now) {
  auto it = entries_.find(client);
  if (it == entries_.end()) {
    // Check() guaranteed a slot (or evicted one); enforce the cap anyway so
    // Record() alone can never grow the table past its bound.
    if (entries_.size() >= options_.max_tracked_clients && !EvictIdle(now)) {
      return;
    }
    it = entries_.emplace(client, Entry{}).first;
    it->second.max_seq = seq;
    it->second.bits = 1;
    it->second.last_touch = now;
    return;
  }
  Entry& entry = it->second;
  entry.last_touch = now;
  if (seq > entry.max_seq) {
    const uint64_t shift = seq - entry.max_seq;
    entry.bits = shift >= kDedupWindowBits ? 0 : entry.bits << shift;
    entry.bits |= 1;
    entry.max_seq = seq;
    return;
  }
  const uint64_t age = entry.max_seq - seq;
  if (age < kDedupWindowBits) {
    entry.bits |= (uint64_t{1} << age);
  }
}

bool DedupFilter::EvictIdle(TimeMicros now) {
  bool evicted = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (now - it->second.last_touch >= options_.idle_eviction) {
      it = entries_.erase(it);
      evicted = true;
    } else {
      ++it;
    }
  }
  return evicted;
}

}  // namespace clandag
