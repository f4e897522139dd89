// The benchmark's metric catalogue and the per-layer arithmetic every
// workload shares.
//
// Workloads fill a name -> value map; Emit() walks the catalogue in order,
// so every run prints every metric of its kind (a layer the workload leaves
// idle reads 0) and a name outside the catalogue is caught as a bug.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "probes.h"
#include "sync/sync_stats.h"
#include "trace.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& PerLayerSpecs();

using Values = std::map<std::string, double>;

// Appends every metric of `specs` to `result` (missing values read 0) and
// records an error for any value whose name is not in `specs`.
void Emit(const std::vector<MetricSpec>& specs, const Values& values, RunResult* result);

// What happened inside the steady window (after warm-up), as deltas.
struct WindowCounts {
  uint32_t nodes = 0;
  double clock_s = 0;      // On the workload's clock (sim time or wall time).
  double wall_s = 0;       // Host wall time.
  double cpu_ms = 0;       // Process CPU.
  uint64_t vertices = 0;   // Ordered at the reference node.
  uint64_t block_vertices = 0;  // Of those, carrying transactions.
  uint64_t requests = 0;   // Committed client requests (sims: transactions).
  uint64_t rounds = 0;     // Rounds the reference node advanced.
  uint64_t anchors_committed = 0;  // Whole run, reference node.
  uint64_t anchors_skipped = 0;
  uint64_t allocs = 0;
  uint64_t pool_fallbacks = 0;  // BufferPool checkouts not served from the free list.
  uint64_t sim_events = 0;
  uint64_t sim_bytes = 0;
  TraceSums trace;
};

SpanTotals operator-(const SpanTotals& a, const SpanTotals& b);
TraceSums operator-(const TraceSums& a, const TraceSums& b);

// Fills the net, consensus, crypto, dag, sim, alloc and cpu metrics from
// the window's counts and the probes' unit costs. `verify_signatures`
// selects whether received echoes and certificates cost a verification.
void AddCommonLayers(const WindowCounts& w, const UnitCosts& unit, bool verify_signatures,
                     Values* values);

// Fills the sync.* counters of the state-sync subsystem.
void AddSyncCounts(const clandag::SyncStats& sync, Values* values);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
