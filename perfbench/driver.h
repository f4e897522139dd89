// The benchmark's own open-loop client population for one node.
//
// Arrival times come from the seed alone: Poisson arrivals at a fixed rate,
// each from a zipf-skewed client (u^skew over the client ranks), with 256 B
// payloads. A request is timed from the moment it was *due*, not from when
// the pump got around to submitting it, so a stalled node's queueing shows
// in latency; how late the pump ran is reported on its own.
//
// Each payload carries (origin node, request index, packed request id), so
// the execution audit can tell which sent request a transaction is and
// whether any node executed it twice.
//
// A request rejected at admission is re-sent unchanged after the reply's
// retry_after, as a client honouring the backpressure contract would, up to
// kMaxAttempts sends; only a request that runs out of attempts counts as
// rejected. Its latency still runs from its first due time.
//
// Threading: one driver per node, used only on that node's event-loop
// thread; read it from elsewhere only after the loop stopped.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "consensus/sailfish.h"
#include "net/client_wire.h"

namespace perfbench {

struct DriverOptions {
  uint64_t seed = 1;
  clandag::NodeId origin = 0;
  double rate_tps = 1000;
  uint32_t clients = 100000;
  double zipf_skew = 3.0;
  uint32_t payload_bytes = 256;
};

struct DriverCounts {
  uint64_t sent = 0;       // Requests submitted (all, warm-up included).
  uint64_t attempted = 0;  // Requests due inside the measurement window.
  uint64_t committed = 0;  // Of those, answered with a committed reply.
  uint64_t retried = 0;    // Re-sends after an admission rejection.
  uint64_t rejected = 0;   // Window requests still rejected after kMaxAttempts.
  uint64_t expired = 0;    // Window requests whose batch expired.
  uint64_t duplicate = 0;  // Window requests answered as duplicates.
  uint64_t unmatched = 0;  // Replies matching no outstanding request.
};

class OpenLoopDriver {
 public:
  OpenLoopDriver(const DriverOptions& options, clandag::TimeMicros start);

  static constexpr uint32_t kMaxAttempts = 20;

  // Calls submit(frame) for every request and retry due at or before `now`.
  template <typename Submit>
  void Pump(clandag::TimeMicros now, Submit&& submit) {
    while (next_due_ <= now) {
      submit(NextFrame(now));
    }
    while (!retries_.empty() && retries_.top().first <= now) {
      const uint64_t packed = retries_.top().second;
      retries_.pop();
      auto it = outstanding_.find(packed);
      if (it != outstanding_.end()) {
        ++counts_.retried;
        submit(it->second.frame);
      }
    }
  }

  void SetWindow(clandag::TimeMicros begin, clandag::TimeMicros end) {
    window_begin_ = begin;
    window_end_ = end;
  }
  // Stops issuing requests (the run's load phase is over).
  void Stop() { next_due_ = INT64_MAX; }

  void OnReply(const clandag::ClientReplyMsg& reply, clandag::TimeMicros now);

  const DriverCounts& counts() const { return counts_; }
  // Window requests still unanswered.
  uint64_t Unanswered() const;
  // One committed window request: when it was due, how long after that it
  // was submitted, and when its committed reply arrived (workload clock).
  struct Sample {
    clandag::TimeMicros due = 0;
    clandag::TimeMicros committed_at = 0;
    double latency_ms() const { return static_cast<double>(committed_at - due) / 1000.0; }
  };
  const std::vector<Sample>& samples() const { return samples_; }
  // (due time, due-to-submit delay in ms) of every window request.
  const std::vector<std::pair<clandag::TimeMicros, double>>& late() const { return late_; }

 private:
  struct Outstanding {
    clandag::TimeMicros due = 0;
    bool in_window = false;
    uint32_t attempts = 1;
    clandag::Bytes frame;  // Kept for re-sends.
  };
  using Retry = std::pair<clandag::TimeMicros, uint64_t>;  // (when, packed id)

  clandag::Bytes NextFrame(clandag::TimeMicros now);
  bool InWindow(clandag::TimeMicros t) const { return t >= window_begin_ && t < window_end_; }

  DriverOptions options_;
  clandag::DetRng rng_;
  clandag::TimeMicros next_due_;
  clandag::TimeMicros window_begin_ = 0;
  clandag::TimeMicros window_end_ = INT64_MAX;
  std::vector<uint32_t> next_seq_;
  // Bounded by the requests in flight (rate x latency).
  std::unordered_map<uint64_t, Outstanding> outstanding_;
  // Bounded by outstanding_: at most one queued retry per request.
  std::priority_queue<Retry, std::vector<Retry>, std::greater<Retry>> retries_;
  std::vector<Sample> samples_;
  std::vector<std::pair<clandag::TimeMicros, double>> late_;
  DriverCounts counts_;
};

// Reads (origin, index, packed id) back out of a driver payload.
struct RequestTag {
  uint32_t origin = 0;
  uint64_t index = 0;
  uint64_t packed_id = 0;
};
bool ParseRequestTag(const clandag::Bytes& data, RequestTag* tag);

// Exactly-once audit of one node incarnation's executions: every executed
// transaction must be a request some driver sent, carry the id it was sent
// with, and run in at most one block.
class ExecutionAudit {
 public:
  explicit ExecutionAudit(uint32_t num_origins) : slots_(num_origins) {}

  // Checks the transactions of one executed block.
  void OnExecuted(const clandag::BlockInfo& block);

  uint64_t duplicates() const { return duplicates_; }
  uint64_t foreign() const { return foreign_; }
  // Executed requests whose index is beyond what `origin` ever sent.
  uint64_t Unsent(uint32_t origin, uint64_t sent) const;

 private:
  // slots_[origin][index] = 1 + packed (round, proposer) of the executing
  // block, 0 if not executed yet.
  std::vector<std::vector<uint64_t>> slots_;
  uint64_t duplicates_ = 0;
  uint64_t foreign_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
