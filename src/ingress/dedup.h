// DedupFilter: sliding-window duplicate suppression keyed (client, seq).
//
// A client that times out retries the same (client, seq); without
// suppression every retry burns block space and — worse — can execute
// twice. The filter remembers, per client, the highest sequence recorded
// and a kDedupWindowBits-wide bitmap of recently recorded sequences below
// it:
//  - seq newer than everything seen    -> fresh (window slides up);
//  - seq within the window             -> fresh exactly once, then duplicate;
//  - seq older than the window's reach -> stale: the filter can no longer
//    prove it was or wasn't recorded, so it is rejected as a duplicate
//    (fail closed; a correct client never regresses its sequence that far).
//
// Check() and Record() are split so the front end can consult the filter
// before admission but record only after the transaction actually entered a
// batch — a rejected-with-retry-after request must stay admittable.
//
// Like the admission bucket table, the per-client table is bounded: idle
// clients are evicted once their entry is old enough, and when the table is
// full of active clients, new clients are rejected (kUntracked) instead of
// growing the map.
//
// Threading: confined to the owning node's event-loop thread.

#ifndef CLANDAG_INGRESS_DEDUP_H_
#define CLANDAG_INGRESS_DEDUP_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "common/time.h"

namespace clandag {

// Width of the per-client recent-sequence bitmap (bit i = seq max_seq - i).
inline constexpr uint32_t kDedupWindowBits = 64;

// Cap on distinct clients tracked by one DedupFilter.
inline constexpr size_t kMaxDedupClients = 1u << 16;

struct DedupOptions {
  // An entry untouched for this long is evictable under table pressure.
  TimeMicros idle_eviction = Seconds(30);
  size_t max_tracked_clients = kMaxDedupClients;
};

enum class DedupVerdict : uint8_t {
  kFresh,      // Never recorded; safe to admit.
  kDuplicate,  // Recorded within the window.
  kStale,      // Below the window; cannot prove freshness — reject.
  kUntracked,  // Client table full of active clients — reject (capacity).
};

class DedupFilter {
 public:
  explicit DedupFilter(DedupOptions options);

  // Classifies (client, seq) without mutating window state (idle clients
  // may be evicted to make room for a new one).
  DedupVerdict Check(uint64_t client, uint64_t seq, TimeMicros now);

  // Records (client, seq) as included. Call only after Check() returned
  // kFresh and the transaction was accepted into a batch.
  void Record(uint64_t client, uint64_t seq, TimeMicros now);

  size_t TrackedClients() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t max_seq = 0;
    uint64_t bits = 0;  // Bit i set => (max_seq - i) recorded.
    TimeMicros last_touch = 0;
  };

  // Classification shared by Check/Record; nullptr entry = unseen client.
  static DedupVerdict Classify(const Entry* entry, uint64_t seq);
  bool EvictIdle(TimeMicros now);

  DedupOptions options_;
  std::unordered_map<uint64_t, Entry> entries_;  // Bounded by max_tracked_clients.
};

}  // namespace clandag

#endif  // CLANDAG_INGRESS_DEDUP_H_
