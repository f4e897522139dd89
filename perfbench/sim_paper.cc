// The two paper-scale simulator workloads (Figure 5a/5b configurations).
//
// The cluster is built here, mirroring RunScenario step for step, so the
// benchmark can put its TracedRuntime/TracedHandler between every node and
// the simulated network. The decorators only count and time; message order
// and timing are untouched, which CheckScenarioEquivalence verifies against
// RunScenario itself at n=16 on every run, and traced runs at full size.
//
// Sim-clock metrics (goodput, creation-to-ordering latency) are bit-exact
// for a seed. Host CPU per ordered vertex, the code-speed signal, is a
// per-layer metric: on a shared host it drifts too much to carry a bound.

#include <algorithm>
#include <memory>

#include "common/quorum.h"
#include "consensus/sailfish.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "probes.h"
#include "report.h"
#include "sim/network.h"
#include "smr/mempool.h"
#include "workloads.h"

namespace perfbench {

using namespace clandag;

namespace {

struct PaperSpec {
  uint32_t n;
  DisseminationMode mode;
  uint32_t clan_size;
  bool verify_signatures;
  Round warmup_rounds;
  Round measure_rounds;
};

// Figure 5/6 options (the paper's evaluation setup): GCP RTTs, 1 Gbps
// uplinks, a 20 us/message cost model, suppressed certificates, 250 x 512 B
// transactions per proposal. The seed draws the clans and the keys.
ScenarioOptions PaperScenario(const PaperSpec& spec, uint64_t seed) {
  ScenarioOptions o;
  o.num_nodes = spec.n;
  o.seed = seed;
  o.mode = spec.mode;
  o.clan_size = spec.clan_size;
  o.num_clans = 2;
  o.random_clans = true;
  o.txs_per_proposal = 250;
  o.tx_size = 512;
  o.topology = ScenarioOptions::Topology::kGcpGeo;
  o.uplink_bytes_per_sec = 125e6;
  o.flavor = RbcFlavor::kTwoRound;
  o.multicast_cert = false;
  o.verify_signatures = spec.verify_signatures;
  o.cost.enabled = true;
  o.cost.per_message = 20;
  o.cost.per_block_byte_us = 0.002;
  o.round_timeout = Seconds(60);
  o.warmup_rounds = spec.warmup_rounds;
  o.measure_rounds = spec.measure_rounds;
  return o;
}

struct OrderLogEntry {
  Round round;
  NodeId source;
  bool operator==(const OrderLogEntry&) const = default;
};

// Host-side state sampled when the reference node enters and leaves the
// measurement window.
struct HostSample {
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  int64_t thread_cpu_ns = 0;
  uint64_t allocs = 0;
  uint64_t pool_fallbacks = 0;
  uint64_t events = 0;
  uint64_t bytes = 0;
  uint64_t ordered = 0;
  uint64_t block_ordered = 0;
  Round round = 0;
  TraceSums trace;
};

uint64_t PoolFallbacks() {
  const BufferPool::Stats s = BufferPool::Global().stats();
  return s.acquires - s.reuses;
}

struct PaperRun {
  ScenarioResult scenario;
  double p99_ms = 0;
  double setup_s = 0;
  WindowCounts window;
  double thread_cpu_share = 0;
  double spans_self_ms = 0;  // Self time of every span kind in the window.
  uint64_t frames_sent = 0;
  uint64_t frames_handled = 0;
  uint64_t frames_pending = 0;
  std::vector<std::unique_ptr<NodeTrace>> traces;
};

// Builds the cluster exactly as RunScenario does, with the benchmark's
// decorators between nodes and network, and runs it to the end of the
// measurement window. With `setup_only` it returns right after Start().
PaperRun RunPaperOnce(const ScenarioOptions& options, bool timing, bool setup_only = false) {
  PaperRun run;
  ScenarioResult& result = run.scenario;
  const int64_t setup_start = ThreadCpuNs();
  const uint32_t n = options.num_nodes;
  const uint32_t f = static_cast<uint32_t>(MaxTribeFaults(n));

  Keychain keychain(options.seed, n);
  ClanTopology topology = TopologyFor(options);
  LatencyMatrix latency = options.topology == ScenarioOptions::Topology::kGcpGeo
                              ? LatencyMatrix::GcpGeoDistributed(n)
                              : LatencyMatrix::Uniform(n, options.uniform_latency);
  Scheduler scheduler;
  NetworkConfig net_config;
  net_config.uplink_bytes_per_sec = options.uplink_bytes_per_sec;
  SimNetwork network(scheduler, std::move(latency), net_config);
  if (options.cost.enabled) {
    const TimeMicros per_message = options.cost.per_message;
    const double per_byte = options.cost.per_block_byte_us;
    network.SetCpuCost([per_message, per_byte](NodeId, MsgType type, size_t wire) {
      TimeMicros cost = per_message;
      if (type == kConsBlock || type == kConsBlockPullResp) {
        cost += static_cast<TimeMicros>(per_byte * static_cast<double>(wire));
      }
      return cost;
    });
  }

  std::vector<std::unique_ptr<SimRuntime>> runtimes;
  std::vector<std::unique_ptr<TracedRuntime>> traced;
  std::vector<std::unique_ptr<SyntheticWorkload>> workloads;
  std::vector<std::unique_ptr<SailfishNode>> nodes;
  std::vector<std::unique_ptr<TracedHandler>> handlers;
  std::vector<std::vector<OrderLogEntry>> order_logs(n);
  auto& traces = run.traces;

  const Round start_round = options.warmup_rounds;
  const Round end_round = options.warmup_rounds + options.measure_rounds;
  const NodeId ref = 0;  // No node is crashed in these workloads.

  LatencyStats latency_stats;
  uint64_t committed_txs = 0;
  TimeMicros window_start = -1;
  TimeMicros window_end = -1;
  uint64_t window_start_bytes = 0;
  bool done = false;
  uint64_t block_ordered = 0;
  HostSample begin;
  HostSample end;
  auto sample = [&](HostSample& s) {
    s.wall_ns = WallNs();
    s.cpu_ns = ProcessCpuNs();
    s.thread_cpu_ns = ThreadCpuNs();
    s.allocs = AllocCount();
    s.pool_fallbacks = PoolFallbacks();
    s.events = scheduler.EventsProcessed();
    s.bytes = network.TotalBytesSent();
    s.ordered = order_logs[ref].size();
    s.block_ordered = block_ordered;
    s.round = nodes[ref]->CurrentRound();
    s.trace = SumTraces(traces);
  };

  // Span buffers are sized so the whole cluster keeps ~64k spans per kind.
  const size_t span_capacity = std::max<size_t>(64, 65536 / n);
  for (NodeId id = 0; id < n; ++id) {
    runtimes.push_back(std::make_unique<SimRuntime>(network, id));
    traces.push_back(std::make_unique<NodeTrace>(id, timing, span_capacity));
    traced.push_back(std::make_unique<TracedRuntime>(*runtimes[id], *traces[id]));
    SyntheticWorkload::Options wopts;
    wopts.txs_per_proposal = options.txs_per_proposal;
    wopts.tx_size = options.tx_size;
    workloads.push_back(std::make_unique<SyntheticWorkload>(wopts));

    SailfishConfig config;
    config.num_nodes = n;
    config.num_faults = f;
    config.round_timeout = options.round_timeout;
    config.dissemination.flavor = options.flavor;
    config.dissemination.multicast_cert = options.multicast_cert;
    config.dissemination.verify_signatures = options.verify_signatures;

    SailfishCallbacks callbacks;
    callbacks.on_ordered = [&, id](const Vertex& v) {
      ScopedSpan span(*traces[id], Boundary::kCallback);
      order_logs[id].push_back(OrderLogEntry{v.round, v.source});
      const bool in_window = v.round >= start_round && v.round < end_round;
      if (in_window && v.block_tx_count > 0) {
        const TimeMicros now = scheduler.Now();
        latency_stats.Add(ToMillis(now - v.block_created_at), v.block_tx_count);
        if (id == ref) {
          committed_txs += v.block_tx_count;
        }
      }
      if (id == ref) {
        block_ordered += v.block_tx_count > 0 ? 1 : 0;
        if (window_start < 0 && v.round >= start_round) {
          window_start = scheduler.Now();
          window_start_bytes = network.TotalBytesSent();
          sample(begin);
          for (auto& t : traces) {
            t->SetRecording(true);
          }
        }
        if (v.round >= end_round && !done) {
          window_end = scheduler.Now();
          done = true;
          sample(end);
        }
      }
    };

    nodes.push_back(std::make_unique<SailfishNode>(*traced[id], keychain, topology, config,
                                                   workloads[id].get(), std::move(callbacks)));
    handlers.push_back(std::make_unique<TracedHandler>(nodes[id].get(), *traces[id]));
    network.RegisterHandler(id, handlers[id].get());
  }
  for (NodeId id = 0; id < n; ++id) {
    nodes[id]->Start();
  }
  run.setup_s = static_cast<double>(ThreadCpuNs() - setup_start) / 1e9;
  if (setup_only) {
    return run;
  }

  while (!done) {
    if (!scheduler.Step()) {
      result.error = "simulation went idle before the measurement window completed";
      return run;
    }
    if (scheduler.Now() > options.max_sim_time) {
      result.error = "simulation exceeded max_sim_time";
      return run;
    }
  }

  const uint64_t window_bytes = network.TotalBytesSent() - window_start_bytes;
  result.agreement_ok = true;
  const std::vector<OrderLogEntry>* longest = nullptr;
  for (NodeId id = 0; id < n; ++id) {
    if (longest == nullptr || order_logs[id].size() > longest->size()) {
      longest = &order_logs[id];
    }
  }
  for (NodeId id = 0; id < n && result.agreement_ok; ++id) {
    const auto& log = order_logs[id];
    if (&log == longest) {
      continue;
    }
    for (size_t i = 0; i < log.size(); ++i) {
      if (!(log[i] == (*longest)[i])) {
        result.agreement_ok = false;
        result.error = "total-order divergence at node " + std::to_string(id);
        break;
      }
    }
    result.ordered_vertices_checked += log.size();
  }
  result.ordered_vertices = longest->size();
  result.ok = result.agreement_ok;
  result.measure_seconds = ToSeconds(window_end - window_start);
  if (result.measure_seconds > 0) {
    result.throughput_ktps = static_cast<double>(committed_txs) / result.measure_seconds / 1000.0;
    result.mean_node_uplink_gbps = static_cast<double>(window_bytes) * 8.0 /
                                   result.measure_seconds / 1e9 / static_cast<double>(n);
  }
  result.committed_txs = committed_txs;
  result.mean_latency_ms = latency_stats.Mean();
  result.p50_latency_ms = latency_stats.Percentile(50);
  result.p95_latency_ms = latency_stats.Percentile(95);
  result.anchors_committed = nodes[ref]->committer().AnchorsCommitted();
  result.anchors_skipped = nodes[ref]->committer().AnchorsSkipped();
  result.last_committed_round = nodes[ref]->LastCommittedRound();
  for (NodeId id = 0; id < n; ++id) {
    result.sync += nodes[id]->sync_stats();
  }
  result.events_processed = scheduler.EventsProcessed();
  result.sim_time_seconds = ToSeconds(scheduler.Now());
  run.p99_ms = latency_stats.Percentile(99);

  WindowCounts& w = run.window;
  w.nodes = n;
  w.clock_s = result.measure_seconds;
  w.wall_s = static_cast<double>(end.wall_ns - begin.wall_ns) / 1e9;
  w.cpu_ms = static_cast<double>(end.cpu_ns - begin.cpu_ns) / 1e6;
  w.vertices = end.ordered - begin.ordered;
  w.block_vertices = end.block_ordered - begin.block_ordered;
  w.requests = committed_txs;
  w.rounds = end.round - begin.round;
  w.anchors_committed = result.anchors_committed;
  w.anchors_skipped = result.anchors_skipped;
  w.allocs = end.allocs - begin.allocs;
  w.pool_fallbacks = end.pool_fallbacks - begin.pool_fallbacks;
  w.sim_events = end.events - begin.events;
  w.sim_bytes = end.bytes - begin.bytes;
  w.trace = end.trace - begin.trace;
  run.thread_cpu_share =
      SafeDiv(static_cast<double>(end.thread_cpu_ns - begin.thread_cpu_ns),
              static_cast<double>(end.wall_ns - begin.wall_ns));
  int64_t self_ns = 0;
  for (const SpanTotals& b : w.trace.boundary) {
    self_ns += b.self_ns;
  }
  run.spans_self_ms = static_cast<double>(self_ns) / 1e6;

  const TraceSums all = SumTraces(traces);
  run.frames_sent = all.boundary[static_cast<size_t>(Boundary::kSend)].units;
  run.frames_handled = all.boundary[static_cast<size_t>(Boundary::kRecv)].count;
  run.frames_pending = scheduler.PendingMessages();
  return run;
}

double CpuMsPerVertex(const PaperRun& run) {
  return SafeDiv(run.window.cpu_ms, static_cast<double>(run.window.vertices));
}

bool SameSimClock(const ScenarioResult& a, const ScenarioResult& b) {
  return a.throughput_ktps == b.throughput_ktps && a.p50_latency_ms == b.p50_latency_ms &&
         a.p95_latency_ms == b.p95_latency_ms && a.ordered_vertices == b.ordered_vertices &&
         a.committed_txs == b.committed_txs;
}

// Runs RunScenario and this driver on the same options at both paper shapes
// (n=16) and reports any difference.
void CheckScenarioEquivalence(RunResult* result) {
  struct Shape {
    PaperSpec spec;
    const char* name;
  };
  const Shape shapes[] = {
      {{16, DisseminationMode::kMultiClan, 0, false, 2, 2}, "multi-clan"},
      {{16, DisseminationMode::kSingleClan, 10, true, 2, 2}, "single-clan verified"},
  };
  for (const Shape& shape : shapes) {
    const ScenarioOptions options = PaperScenario(shape.spec, 7);
    const ScenarioResult expected = RunScenario(options);
    const PaperRun mine = RunPaperOnce(options, /*timing=*/true);
    result->Check(expected.ok && mine.scenario.ok && SameSimClock(expected, mine.scenario),
                  std::string("benchmark sim driver diverges from RunScenario (") + shape.name +
                      ")");
  }
}

RunResult RunSimPaper(const RunOptions& opts, const PaperSpec& spec) {
  RunResult out;
  const ScenarioOptions options = PaperScenario(spec, opts.seed);

  // Set-ups are timed first, on a fresh heap (see SetupSeconds). The
  // scenario then runs once. A traced run repeats it with the clocks on: the
  // CPU ratio of the two is the tracing overhead, and the repetition must
  // reproduce the first on the sim clock, as must RunScenario itself.
  const double setup_s =
      SetupSeconds([&] { return RunPaperOnce(options, false, /*setup_only=*/true).setup_s; });
  std::vector<PaperRun> runs;
  for (int rep = 0; rep < (opts.trace ? 2 : 1) && out.errors.empty(); ++rep) {
    runs.push_back(RunPaperOnce(options, /*timing=*/rep == 1));
    const PaperRun& run = runs.back();
    out.Check(run.scenario.error.empty(), "scenario: " + run.scenario.error);
    out.Check(run.scenario.agreement_ok, "ordered logs disagree across nodes");
    out.Check(SameSimClock(run.scenario, runs.front().scenario),
              "sim-clock metrics differ between repetitions of one seed");
    out.Check(run.frames_sent == run.frames_handled + run.frames_pending,
              "frames sent != frames handled + frames in flight");
  }
  CheckScenarioEquivalence(&out);
  if (opts.trace && out.errors.empty()) {
    // At the workload's own size and seed too; too slow for every run.
    const ScenarioResult expected = RunScenario(options);
    out.Check(expected.ok && SameSimClock(expected, runs.front().scenario),
              "benchmark sim driver diverges from RunScenario at the workload's size");
  }
  const PaperRun& ref = runs.front();
  const ScenarioResult& s = ref.scenario;
  out.attempted = std::max<uint64_t>(1, s.committed_txs);
  out.failed = out.errors.size();

  Values v;
  if (!opts.trace) {
    v["setup_s"] = setup_s;
    v["commit_p50_ms"] = s.p50_latency_ms;
    v["commit_p99_ms"] = ref.p99_ms;
    v["goodput_tps"] = s.throughput_ktps * 1000.0;
    v["peak_rss_mb"] = PeakRssMb();
    Emit(EndToEndSpecs(), v, &out);
    return out;
  }
  if (runs.size() < 2) {
    Emit(PerLayerSpecs(), v, &out);
    return out;
  }

  const PaperRun& traced = runs.back();
  const WindowCounts& w = traced.window;
  const UnitCosts unit = MeasureUnitCosts(spec.n, opts.work_dir);
  AddCommonLayers(w, unit, spec.verify_signatures, &v);
  v["net.loop_cpu_share"] = traced.thread_cpu_share;
  AddSyncCounts(s.sync, &v);
  v["commit.samples"] = static_cast<double>(s.committed_txs);
  v["fail_ratio"] = SafeDiv(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  v["host_cpu_ms_per_vertex"] = CpuMsPerVertex(ref);
  v["trace.overhead_share"] = SafeDiv(CpuMsPerVertex(traced), CpuMsPerVertex(ref)) - 1.0;
  // Reconciliation: span self times are disjoint slices of the window.
  out.Check(traced.spans_self_ms <= w.wall_s * 1000.0 * 1.01,
            "span self times exceed the window's wall time");
  Emit(PerLayerSpecs(), v, &out);
  std::vector<const NodeTrace*> traces;
  for (const auto& t : traced.traces) {
    traces.push_back(t.get());
  }
  DumpSpans(traces, opts.work_dir + "/spans.tsv");
  return out;
}

}  // namespace

RunResult RunSimPaperN100(const RunOptions& options) {
  return RunSimPaper(options, PaperSpec{100, DisseminationMode::kMultiClan, 0, false, 2, 3});
}

RunResult RunSimVerifiedN50(const RunOptions& options) {
  return RunSimPaper(options, PaperSpec{50, DisseminationMode::kSingleClan, 32, true, 2, 3});
}

}  // namespace perfbench
