#include "core/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace clandag {

void LatencyStats::Add(double value_ms, uint64_t weight) {
  if (weight == 0) {
    return;
  }
  // bounded: one sample per measured event; stats objects are run-scoped.
  samples_.push_back(Sample{value_ms, weight});
  sorted_ = false;
  total_weight_ += weight;
  weighted_sum_ += value_ms * static_cast<double>(weight);
}

void LatencyStats::Merge(const LatencyStats& other) {
  if (&other == this || other.samples_.empty()) {
    return;
  }
  // bounded: merge of two run-scoped sample sets.
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
  total_weight_ += other.total_weight_;
  weighted_sum_ += other.weighted_sum_;
}

void LatencyStats::Reset() {
  samples_.clear();
  sorted_ = false;
  total_weight_ = 0;
  weighted_sum_ = 0.0;
}

double LatencyStats::Mean() const {
  if (total_weight_ == 0) {
    return 0.0;
  }
  return weighted_sum_ / static_cast<double>(total_weight_);
}

void LatencyStats::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end(),
              [](const Sample& a, const Sample& b) { return a.value_ms < b.value_ms; });
    sorted_ = true;
  }
}

double LatencyStats::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  const double target = p / 100.0 * static_cast<double>(total_weight_);
  uint64_t cumulative = 0;
  for (const Sample& s : samples_) {
    cumulative += s.weight;
    if (static_cast<double>(cumulative) >= target) {
      return s.value_ms;
    }
  }
  return samples_.back().value_ms;
}

double LatencyStats::Min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  return samples_.front().value_ms;
}

double LatencyStats::Max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  return samples_.back().value_ms;
}

std::string FormatSyncStats(const SyncStats& s) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "fetch: req=%llu retry=%llu resp=%llu got=%llu bad=%llu dropped=%llu | "
                "serve: req=%llu sent=%llu wal=%llu | "
                "snap: written=%llu installed=%llu wal_cut=%llu chunk_retry=%llu "
                "offers=%llu chunks=%llu",
                static_cast<unsigned long long>(s.requests_sent),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.responses_received),
                static_cast<unsigned long long>(s.vertices_fetched),
                static_cast<unsigned long long>(s.digest_mismatches),
                static_cast<unsigned long long>(s.fetches_abandoned),
                static_cast<unsigned long long>(s.requests_served),
                static_cast<unsigned long long>(s.vertices_served),
                static_cast<unsigned long long>(s.wal_vertices_served),
                static_cast<unsigned long long>(s.snapshots_written),
                static_cast<unsigned long long>(s.snapshots_installed),
                static_cast<unsigned long long>(s.wal_records_truncated),
                static_cast<unsigned long long>(s.snapshot_chunk_retries),
                static_cast<unsigned long long>(s.snapshot_offers_sent),
                static_cast<unsigned long long>(s.snapshot_chunks_served));
  return std::string(buf);
}

}  // namespace clandag
