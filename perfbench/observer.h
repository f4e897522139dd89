// What the benchmark records about one AppNode from its callbacks: the
// ordered log (for prefix agreement), ordering-to-execution and
// ordering-to-reply delays, and the exactly-once audit of its executions.
// Used on the node's event-loop thread only.

#ifndef PERFBENCH_OBSERVER_H_
#define PERFBENCH_OBSERVER_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/app_node.h"
#include "driver.h"
#include "probes.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

class NodeObserver {
 public:
  explicit NodeObserver(uint32_t num_nodes) : audit_(num_nodes) {}

  void OnOrdered(const clandag::Vertex& v, clandag::TimeMicros now);
  // `block` is the executed block as the node's disseminator holds it.
  void OnReceipt(const clandag::ExecutionReceipt& receipt, const clandag::BlockInfo* block,
                 clandag::TimeMicros now);
  void OnCommittedReply(const clandag::ClientReplyMsg& reply, clandag::TimeMicros now);

  // Ordered (round, source) keys in order.
  const std::vector<uint64_t>& log() const { return log_; }
  uint64_t block_ordered() const { return block_ordered_; }
  const ExecutionAudit& audit() const { return audit_; }
  // (time, delay in ms) samples.
  const std::vector<std::pair<clandag::TimeMicros, double>>& exec_lag() const { return exec_lag_; }
  const std::vector<std::pair<clandag::TimeMicros, double>>& reply_quorum() const {
    return reply_quorum_;
  }

 private:
  std::vector<uint64_t> log_;
  uint64_t block_ordered_ = 0;
  clandag::Round top_round_ = 0;
  // Ordering time of recent blocks, pruned by round.
  std::unordered_map<uint64_t, clandag::TimeMicros> ordered_at_;
  std::vector<std::pair<clandag::TimeMicros, double>> exec_lag_;
  std::vector<std::pair<clandag::TimeMicros, double>> reply_quorum_;
  ExecutionAudit audit_;
};

inline uint64_t VertexKey(clandag::Round round, clandag::NodeId source) {
  return (round << 16) | source;
}

// True when the shorter log is a prefix of the longer.
bool PrefixAgree(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b);

// Values in [from, to) of (time, value) samples.
std::vector<double> InRange(const std::vector<std::pair<clandag::TimeMicros, double>>& samples,
                            clandag::TimeMicros from, clandag::TimeMicros to);

// Host state at one instant (process-wide counters).
struct ProcessSnap {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  uint64_t allocs = 0;
  uint64_t pool_fallbacks = 0;
  static ProcessSnap Take();
};

// One node's state at one instant, taken on its own thread.
struct NodeSnap {
  bool taken = false;
  clandag::TimeMicros at = 0;
  int64_t thread_cpu_ns = 0;
  uint64_t ordered = 0;
  uint64_t block_ordered = 0;
  uint64_t anchors = 0;
  clandag::Round round = 0;
  TraceSums trace;
  static NodeSnap Take(clandag::AppNode& app, const NodeObserver& obs, const NodeTrace& trace,
                       clandag::TimeMicros now);
};

// Removes a node's WAL and its snapshot files.
void RemoveWalFiles(const std::string& wal_path);

// The ingress, smr and sync layers of a set of AppNodes (every incarnation),
// summed for the per-layer report.
struct AppLayers {
  clandag::IngressStats ingress;
  clandag::BatcherStats batcher;
  clandag::SyncStats sync;
  std::vector<double> exec_lag_ms;      // In the window.
  std::vector<double> reply_quorum_ms;  // In the window.
  std::vector<double> late_ms;          // Driver due-to-submit delays.
  uint64_t pending_bytes_peak = 0;
  uint64_t fsyncs = 0;  // One per proposal marker, one per committed anchor.

  void Add(const clandag::AppNode& app, const NodeObserver& obs, clandag::TimeMicros from,
           clandag::TimeMicros to);
};

// Fills the ingress.*, loadgen.*, smr.* and sync.* metrics.
void AddAppLayers(AppLayers& layers, const WindowCounts& w, const UnitCosts& unit,
                  Values* values);

}  // namespace perfbench

#endif  // PERFBENCH_OBSERVER_H_
