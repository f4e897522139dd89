// Measurement helpers for the benchmark harness.
//
// Threading: plain value types mutated by a single bench/driver thread (or
// one node's loop thread); aggregate across threads only after joining them.

#ifndef CLANDAG_CORE_METRICS_H_
#define CLANDAG_CORE_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sync/sync_stats.h"

namespace clandag {

// Weighted latency samples (weight = transactions in the block).
class LatencyStats {
 public:
  void Add(double value_ms, uint64_t weight = 1);
  // Folds another distribution in (per-node stats -> cluster-wide stats).
  void Merge(const LatencyStats& other);
  void Reset();

  uint64_t TotalWeight() const { return total_weight_; }
  size_t SampleCount() const { return samples_.size(); }
  double Mean() const;
  // Weighted percentile in [0, 100].
  double Percentile(double p) const;
  double Min() const;
  double Max() const;

 private:
  struct Sample {
    double value_ms;
    uint64_t weight;
  };
  mutable std::vector<Sample> samples_;
  mutable bool sorted_ = false;
  uint64_t total_weight_ = 0;
  double weighted_sum_ = 0.0;

  void EnsureSorted() const;
};

// One-line human-readable rendering of the sync subsystem counters.
std::string FormatSyncStats(const SyncStats& s);

}  // namespace clandag

#endif  // CLANDAG_CORE_METRICS_H_
