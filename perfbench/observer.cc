#include "observer.h"

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "common/pool.h"

namespace perfbench {

using clandag::TimeMicros;

namespace {

// Blocks whose replies are still outstanding are far younger than this.
constexpr clandag::Round kOrderedAtHorizon = 4096;

}  // namespace

void NodeObserver::OnOrdered(const clandag::Vertex& v, TimeMicros now) {
  log_.push_back(VertexKey(v.round, v.source));
  if (!v.HasBlock()) {
    return;
  }
  ++block_ordered_;
  ordered_at_[VertexKey(v.round, v.source)] = now;
  if (v.round > top_round_ + kOrderedAtHorizon) {
    top_round_ = v.round;
    std::erase_if(ordered_at_, [&](const auto& entry) {
      return (entry.first >> 16) + kOrderedAtHorizon < top_round_;
    });
  }
}

void NodeObserver::OnReceipt(const clandag::ExecutionReceipt& receipt,
                             const clandag::BlockInfo* block, TimeMicros now) {
  auto it = ordered_at_.find(VertexKey(receipt.round, receipt.proposer));
  if (it != ordered_at_.end()) {
    exec_lag_.emplace_back(now, static_cast<double>(now - it->second) / 1000.0);
  }
  if (block != nullptr) {
    audit_.OnExecuted(*block);
  }
}

void NodeObserver::OnCommittedReply(const clandag::ClientReplyMsg& reply, TimeMicros now) {
  auto it = ordered_at_.find(VertexKey(reply.round, reply.proposer));
  if (it != ordered_at_.end()) {
    reply_quorum_.emplace_back(now, static_cast<double>(now - it->second) / 1000.0);
  }
}

bool PrefixAgree(const std::vector<uint64_t>& a, const std::vector<uint64_t>& b) {
  const size_t n = std::min(a.size(), b.size());
  return std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(n), b.begin());
}

std::vector<double> InRange(const std::vector<std::pair<TimeMicros, double>>& samples,
                            TimeMicros from, TimeMicros to) {
  std::vector<double> out;
  for (const auto& [t, value] : samples) {
    if (t >= from && t < to) {
      out.push_back(value);
    }
  }
  return out;
}

ProcessSnap ProcessSnap::Take() {
  ProcessSnap s;
  s.wall_ns = WallNs();
  s.cpu_ns = ProcessCpuNs();
  s.allocs = AllocCount();
  const clandag::BufferPool::Stats pool = clandag::BufferPool::Global().stats();
  s.pool_fallbacks = pool.acquires - pool.reuses;
  return s;
}

NodeSnap NodeSnap::Take(clandag::AppNode& app, const NodeObserver& obs, const NodeTrace& trace,
                        TimeMicros now) {
  NodeSnap s;
  s.taken = true;
  s.at = now;
  s.thread_cpu_ns = ThreadCpuNs();
  s.ordered = obs.log().size();
  s.block_ordered = obs.block_ordered();
  s.anchors = app.consensus().committer().AnchorsCommitted();
  s.round = app.consensus().CurrentRound();
  s.trace = SumOf(trace);
  return s;
}

void RemoveWalFiles(const std::string& wal_path) {
  for (const char* suffix : {"", ".snap", ".snap.prev"}) {
    std::remove((wal_path + suffix).c_str());
  }
}

void AppLayers::Add(const clandag::AppNode& app, const NodeObserver& obs, TimeMicros from,
                    TimeMicros to) {
  const std::vector<double> lag = InRange(obs.exec_lag(), from, to);
  exec_lag_ms.insert(exec_lag_ms.end(), lag.begin(), lag.end());
  const std::vector<double> rq = InRange(obs.reply_quorum(), from, to);
  reply_quorum_ms.insert(reply_quorum_ms.end(), rq.begin(), rq.end());
  const clandag::IngressStats& is = app.ingress()->stats();
  ingress.received += is.received;
  ingress.rejected_rate += is.rejected_rate;
  ingress.rejected_capacity += is.rejected_capacity;
  ingress.batches_proposed += is.batches_proposed;
  ingress.txs_proposed += is.txs_proposed;
  const clandag::BatcherStats& bs = app.ingress()->batcher().stats();
  batcher.closed_by_size += bs.closed_by_size;
  batcher.closed_by_deadline += bs.closed_by_deadline;
  sync += app.sync_stats();
}

void AddAppLayers(AppLayers& layers, const WindowCounts& w, const UnitCosts& unit,
                  Values* values) {
  Values& v = *values;
  const SpanTotals& submits = w.trace.boundary[static_cast<size_t>(Boundary::kSubmit)];
  v["ingress.submit_us"] =
      SafeDiv(static_cast<double>(submits.total_ns) / 1000.0, static_cast<double>(submits.count));
  v["ingress.txs_per_batch"] = SafeDiv(static_cast<double>(layers.ingress.txs_proposed),
                                       static_cast<double>(layers.ingress.batches_proposed));
  v["ingress.deadline_close_share"] = SafeDiv(
      static_cast<double>(layers.batcher.closed_by_deadline),
      static_cast<double>(layers.batcher.closed_by_deadline + layers.batcher.closed_by_size));
  v["ingress.reject_share"] = SafeDiv(
      static_cast<double>(layers.ingress.rejected_rate + layers.ingress.rejected_capacity),
      static_cast<double>(layers.ingress.received));
  v["ingress.pending_bytes_peak"] = static_cast<double>(layers.pending_bytes_peak);
  v["loadgen.late_p99_ms"] = Percentile(layers.late_ms, 0.99);
  v["smr.exec_lag_ms"] = Percentile(layers.exec_lag_ms, 0.5);
  v["smr.reply_quorum_ms"] = Percentile(layers.reply_quorum_ms, 0.5);
  v["sync.est_share"] =
      SafeDiv(unit.wal_fsync_us * static_cast<double>(layers.fsyncs) / 1000.0, w.cpu_ms);
  AddSyncCounts(layers.sync, values);
}

}  // namespace perfbench
