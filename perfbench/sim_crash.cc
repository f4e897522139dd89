// sim-crash-restart: four AppNodes on the simulator (uniform 5 ms links)
// with ingress, a WAL and snapshots, open-loop clients on every node. Node 3
// crashes at 3 s and restarts at 6 s, a gap far past the 64-round GC
// horizon, so it replays its WAL, installs a peer's snapshot and fetches the
// rest.
//
// Clients of node 3 stop sending to it 250 ms before the crash and fail
// over to node 0 until it restarts, so no request is lost to the crash
// itself; the outage shows as latency, in the longest interval without any
// committed reply (unavailable_s) and in the catch-up time.
//
// Everything runs on the simulated clock except recovery_ms (host wall time
// of the restarted node's Start()) and the host CPU figures.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/app_node.h"
#include "observer.h"
#include "probes.h"
#include "report.h"
#include "sim/network.h"
#include "workloads.h"

namespace perfbench {

using namespace clandag;

namespace {

constexpr uint32_t kNodes = 4;
constexpr NodeId kVictim = 3;
constexpr NodeId kFailover = 0;
constexpr double kRatePerNode = 1000;
constexpr TimeMicros kPump = Millis(1);
constexpr TimeMicros kLink = Millis(5);  // One-way delay of every link.
constexpr TimeMicros kWindowBegin = Seconds(1);
constexpr TimeMicros kDrainBefore = Millis(250);
constexpr TimeMicros kCrashAt = Seconds(3);
constexpr TimeMicros kRestartAt = Seconds(6);
constexpr TimeMicros kWindowEnd = Seconds(10);
constexpr TimeMicros kRunEnd = Seconds(11);
constexpr Round kCaughtUpRounds = 8;
constexpr int kSubRuns = 5;

AppNodeOptions NodeOptions(const std::string& wal_path) {
  AppNodeOptions options;
  options.consensus.num_nodes = kNodes;
  options.consensus.num_faults = 1;
  options.consensus.round_timeout = Millis(250);
  options.enable_ingress = true;
  options.ingress.batcher.max_batch_wait = Millis(20);
  // Room for node 0 to carry node 3's clients too while node 3 is down,
  // when every fourth round waits out the dead leader's timeout.
  options.ingress.batcher.max_batch_bytes = 64 << 10;
  options.ingress.admission.global_byte_budget = 2 << 20;
  options.wal_path = wal_path;
  options.snapshot_interval_rounds = 64;
  return options;
}

std::string WalPath(const std::string& dir, NodeId id) {
  return dir + "/crash-node" + std::to_string(id) + ".wal";
}

// One node incarnation: the restarted node 3 gets a fresh one.
struct Incarnation {
  std::unique_ptr<TracedRuntime> runtime;
  std::unique_ptr<NodeObserver> obs;
  std::unique_ptr<AppNode> app;
  std::unique_ptr<TracedHandler> handler;
  // Ordered keys split where a snapshot install re-anchored the order.
  std::vector<std::vector<uint64_t>> segments{1};
};

struct CrashRun {
  double setup_s = 0;
  std::vector<double> latencies;
  double goodput_tps = 0;
  double unavailable_s = 0;
  double catchup_s = 0;
  double recovery_ms = 0;
  double cpu_ms_per_vertex = 0;
  double thread_cpu_share = 0;  // Driver thread CPU / wall in the window.
  uint64_t attempted = 0;
  uint64_t failed_requests = 0;
  WindowCounts window;
  std::vector<std::unique_ptr<NodeTrace>> traces;
  AppLayers layers;
  RecoveryStats recovery;
};

// True when `segment` runs contiguously inside `ref` from wherever its first
// key sits, or starts above every round `ref` ordered (nothing to compare).
bool ContiguousIn(const std::vector<uint64_t>& segment, const std::vector<uint64_t>& ref,
                  const std::unordered_map<uint64_t, size_t>& index, Round ref_top_round) {
  if (segment.empty()) {
    return true;
  }
  auto it = index.find(segment.front());
  if (it == index.end()) {
    return (segment.front() >> 16) > ref_top_round;
  }
  for (size_t i = 0; i < segment.size(); ++i) {
    const size_t pos = it->second + i;
    if (pos >= ref.size()) {
      return true;
    }
    if (ref[pos] != segment[i]) {
      return false;
    }
  }
  return true;
}

CrashRun RunCrashOnce(const RunOptions& opts, uint64_t seed, bool timing, RunResult* out,
                      bool setup_only = false) {
  CrashRun run;
  const int64_t setup_start = ThreadCpuNs();
  Scheduler scheduler;
  Keychain keychain(seed, kNodes);
  const ClanTopology topology = ClanTopology::Full(kNodes);
  SimNetwork network(scheduler, LatencyMatrix::Uniform(kNodes, kLink), NetworkConfig{1e9, 0});

  std::vector<std::unique_ptr<SimRuntime>> sims;
  std::vector<std::unique_ptr<OpenLoopDriver>> drivers;
  std::vector<std::vector<std::unique_ptr<Incarnation>>> lives(kNodes);
  std::vector<bool> alive(kNodes, true);
  auto& traces = run.traces;
  auto current = [&](NodeId id) -> Incarnation& { return *lives[id].back(); };

  std::function<void(NodeId)> make_node = [&](NodeId id) {
    auto inc = std::make_unique<Incarnation>();
    Incarnation* self = inc.get();
    inc->runtime = std::make_unique<TracedRuntime>(*sims[id], *traces[id]);
    inc->obs = std::make_unique<NodeObserver>(kNodes);
    AppNodeCallbacks callbacks;
    callbacks.on_ordered = [&, self, id](const Vertex& v) {
      ScopedSpan span(*traces[id], Boundary::kCallback);
      self->obs->OnOrdered(v, scheduler.Now());
      self->segments.back().push_back(VertexKey(v.round, v.source));
    };
    callbacks.on_snapshot_installed = [self](const SnapshotData&) {
      self->segments.emplace_back();
    };
    callbacks.on_client_reply = [&, self, id](uint64_t, const ClientReplyMsg& reply) {
      ScopedSpan span(*traces[id], Boundary::kCallback);
      if (reply.status == ClientReplyStatus::kCommitted) {
        self->obs->OnCommittedReply(reply, scheduler.Now());
      }
      // The top byte of the client id names the driver (failover replies
      // come from another node).
      const NodeId origin = reply.client_id >> 24;
      if (origin < kNodes) {
        drivers[origin]->OnReply(reply, scheduler.Now());
      }
    };
    callbacks.on_receipt = [&, self, id](const ExecutionReceipt& receipt) {
      ScopedSpan span(*traces[id], Boundary::kCallback);
      self->obs->OnReceipt(
          receipt, self->app->consensus().disseminator().GetBlock(receipt.proposer, receipt.round),
          scheduler.Now());
      // Receipts travel to the peers over the same 5 ms links as protocol
      // messages, so the reply quorum waits for the first peer receipt.
      for (NodeId peer = 0; peer < kNodes; ++peer) {
        if (peer != id) {
          scheduler.ScheduleCallbackAt(scheduler.Now() + kLink, [&, peer, id, receipt] {
            if (alive[peer]) {
              current(peer).app->OnExecutorReceipt(id, receipt);
            }
          });
        }
      }
    };
    inc->app = std::make_unique<AppNode>(*inc->runtime, keychain, topology,
                                         NodeOptions(WalPath(opts.work_dir, id)),
                                         std::move(callbacks));
    inc->handler = std::make_unique<TracedHandler>(inc->app.get(), *traces[id]);
    network.RegisterHandler(id, inc->handler.get());
    lives[id].push_back(std::move(inc));
  };

  for (NodeId id = 0; id < kNodes; ++id) {
    RemoveWalFiles(WalPath(opts.work_dir, id));
    sims.push_back(std::make_unique<SimRuntime>(network, id));
    traces.push_back(std::make_unique<NodeTrace>(id, timing, 8192));
    DriverOptions d;
    d.seed = seed;
    d.origin = id;
    d.rate_tps = kRatePerNode;
    drivers.push_back(std::make_unique<OpenLoopDriver>(d, Millis(1)));
    drivers[id]->SetWindow(kWindowBegin, kWindowEnd);
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    make_node(id);
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    current(id).app->Start();
  }
  run.setup_s = static_cast<double>(ThreadCpuNs() - setup_start) / 1e9;
  if (setup_only) {
    return run;
  }

  // Pumps: every node's clients, routed to node 0 while node 3 is drained
  // or down.
  std::vector<uint64_t> pending_peak(kNodes, 0);
  std::function<void(NodeId)> pump = [&](NodeId id) {
    const TimeMicros now = scheduler.Now();
    const bool drained = id == kVictim && now >= kCrashAt - kDrainBefore && now < kRestartAt;
    const NodeId target = drained ? kFailover : id;
    drivers[id]->Pump(now, [&](const Bytes& frame) {
      ScopedSpan span(*traces[target], Boundary::kSubmit);
      current(target).app->SubmitClientRequest(frame);
    });
    if (alive[id]) {
      pending_peak[id] = std::max<uint64_t>(pending_peak[id],
                                            current(id).app->ingress()->PendingBytes());
    }
    if (now >= kWindowEnd) {
      drivers[id]->Stop();  // No new arrivals; re-sends still go out.
    }
    if (now + kPump < kRunEnd) {
      scheduler.ScheduleCallbackAt(now + kPump, [&pump, id] { pump(id); });
    }
  };
  for (NodeId id = 0; id < kNodes; ++id) {
    scheduler.ScheduleCallbackAt(Millis(1), [&pump, id] { pump(id); });
  }

  ProcessSnap proc[2];
  NodeSnap ref[2];
  uint64_t events[2] = {0, 0};
  uint64_t bytes[2] = {0, 0};
  uint64_t fsync_marks[2] = {0, 0};
  auto snap_window = [&](int i) {
    proc[i] = ProcessSnap::Take();
    ref[i] = NodeSnap::Take(*current(0).app, *current(0).obs, *traces[0], scheduler.Now());
    ref[i].trace = SumTraces(traces);  // Every node's spans: one thread runs them all.
    events[i] = scheduler.EventsProcessed();
    bytes[i] = network.TotalBytesSent();
    // One fsync per proposal marker and per committed anchor, counted on
    // the nodes that stay up (the restarted node's round jumps).
    for (NodeId id = 0; id < kNodes; ++id) {
      if (id != kVictim) {
        const SailfishNode& node = current(id).app->consensus();
        fsync_marks[i] += node.CurrentRound() + node.committer().AnchorsCommitted();
      }
    }
  };
  scheduler.ScheduleCallbackAt(kWindowBegin, [&] {
    snap_window(0);
    for (auto& t : traces) {
      t->SetRecording(true);
    }
  });
  scheduler.ScheduleCallbackAt(kCrashAt, [&] {
    alive[kVictim] = false;
    network.SetCrashed(kVictim, true);
    current(kVictim).runtime->SetAlive(false);
  });
  TimeMicros caught_up_at = -1;
  std::function<void()> watch_catchup = [&] {
    int64_t frontier = -1;
    for (NodeId id = 0; id < kNodes; ++id) {
      if (id != kVictim) {
        frontier = std::max(frontier, current(id).app->consensus().LastCommittedRound());
      }
    }
    const int64_t victim = current(kVictim).app->consensus().LastCommittedRound();
    if (victim + static_cast<int64_t>(kCaughtUpRounds) >= frontier) {
      caught_up_at = scheduler.Now();
      return;
    }
    scheduler.ScheduleCallbackAt(scheduler.Now() + Millis(5), watch_catchup);
  };
  scheduler.ScheduleCallbackAt(kRestartAt, [&] {
    make_node(kVictim);
    network.SetCrashed(kVictim, false);
    alive[kVictim] = true;
    const int64_t t0 = WallNs();
    current(kVictim).app->Start();
    run.recovery_ms = static_cast<double>(WallNs() - t0) / 1e6;
    scheduler.ScheduleCallbackAt(scheduler.Now() + Millis(5), watch_catchup);
  });
  scheduler.ScheduleCallbackAt(kWindowEnd, [&] { snap_window(1); });
  scheduler.RunUntil(kRunEnd);

  // Correctness.
  const std::vector<uint64_t>& ref_log = current(0).obs->log();
  std::unordered_map<uint64_t, size_t> index;
  Round ref_top_round = 0;
  for (size_t i = 0; i < ref_log.size(); ++i) {
    index.emplace(ref_log[i], i);
    ref_top_round = std::max<Round>(ref_top_round, ref_log[i] >> 16);
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    for (size_t life = 0; life < lives[id].size(); ++life) {
      const Incarnation& inc = *lives[id][life];
      const ExecutionAudit& audit = inc.obs->audit();
      out->Check(audit.duplicates() == 0, "a request executed twice");
      out->Check(audit.foreign() == 0, "an executed transaction matches no sent request");
      for (NodeId origin = 0; origin < kNodes; ++origin) {
        out->Check(audit.Unsent(origin, drivers[origin]->counts().sent) == 0,
                   "an executed transaction was never sent");
      }
      if (life == 0) {
        out->Check(PrefixAgree(inc.obs->log(), ref_log),
                   "ordered log of node " + std::to_string(id) + " diverges");
      } else {
        for (const auto& segment : inc.segments) {
          out->Check(ContiguousIn(segment, ref_log, index, ref_top_round),
                     "restarted node's ordered log diverges");
        }
      }
    }
  }
  out->Check(caught_up_at > 0, "restarted node never caught up");

  // End-to-end.
  std::vector<TimeMicros> commits;
  for (NodeId id = 0; id < kNodes; ++id) {
    const OpenLoopDriver& d = *drivers[id];
    for (const auto& s : d.samples()) {
      run.latencies.push_back(s.latency_ms());
      commits.push_back(s.committed_at);
    }
    for (const auto& [due, ms] : d.late()) {
      run.layers.late_ms.push_back(ms);
    }
    const DriverCounts& c = d.counts();
    run.attempted += c.attempted;
    run.failed_requests +=
        c.rejected + c.expired + c.duplicate + c.unmatched + d.Unanswered();
  }
  std::sort(run.latencies.begin(), run.latencies.end());
  std::sort(commits.begin(), commits.end());
  TimeMicros last = kWindowBegin;
  TimeMicros gap = 0;
  for (TimeMicros t : commits) {
    gap = std::max(gap, t - last);
    last = std::max(last, t);
  }
  run.unavailable_s = ToSeconds(std::max(gap, kWindowEnd - last));
  // Window requests whose committed reply also came inside the window: the
  // outage backlog and slow catch-up push commits past its end.
  const auto committed_in_window = std::lower_bound(commits.begin(), commits.end(), kWindowEnd);
  run.goodput_tps = static_cast<double>(committed_in_window - commits.begin()) /
                    ToSeconds(kWindowEnd - kWindowBegin);
  run.catchup_s = ToSeconds(caught_up_at - kRestartAt);

  WindowCounts& w = run.window;
  w.nodes = kNodes;
  w.clock_s = ToSeconds(kWindowEnd - kWindowBegin);
  w.wall_s = static_cast<double>(proc[1].wall_ns - proc[0].wall_ns) / 1e9;
  w.cpu_ms = static_cast<double>(proc[1].cpu_ns - proc[0].cpu_ns) / 1e6;
  w.vertices = ref[1].ordered - ref[0].ordered;
  w.block_vertices = ref[1].block_ordered - ref[0].block_ordered;
  w.requests = run.latencies.size();
  w.rounds = ref[1].round - ref[0].round;
  w.allocs = proc[1].allocs - proc[0].allocs;
  w.pool_fallbacks = proc[1].pool_fallbacks - proc[0].pool_fallbacks;
  w.sim_events = events[1] - events[0];
  w.sim_bytes = bytes[1] - bytes[0];
  w.trace = ref[1].trace - ref[0].trace;
  run.cpu_ms_per_vertex = SafeDiv(w.cpu_ms, static_cast<double>(w.vertices));
  run.thread_cpu_share =
      SafeDiv(static_cast<double>(ref[1].thread_cpu_ns - ref[0].thread_cpu_ns),
              static_cast<double>(proc[1].wall_ns - proc[0].wall_ns));
  run.layers.fsyncs = fsync_marks[1] - fsync_marks[0];

  for (NodeId id = 0; id < kNodes; ++id) {
    run.layers.pending_bytes_peak = std::max(run.layers.pending_bytes_peak, pending_peak[id]);
    for (const auto& inc : lives[id]) {
      run.layers.Add(*inc->app, *inc->obs, kWindowBegin, kWindowEnd);
    }
  }
  run.recovery = current(kVictim).app->recovery_stats();
  w.anchors_committed = current(0).app->consensus().committer().AnchorsCommitted();
  w.anchors_skipped = current(0).app->consensus().committer().AnchorsSkipped();
  for (NodeId id = 0; id < kNodes; ++id) {
    RemoveWalFiles(WalPath(opts.work_dir, id));
  }
  return run;
}

bool SameSimClock(const CrashRun& a, const CrashRun& b) {
  return a.latencies == b.latencies && a.unavailable_s == b.unavailable_s &&
         a.catchup_s == b.catchup_s;
}

}  // namespace

RunResult RunSimCrashRestart(const RunOptions& opts) {
  RunResult out;
  // One run is kSubRuns crash scenarios, each with its own seed drawn from
  // the run's seed; the end-to-end figures are their medians, which keeps
  // one unlucky crash timing from moving the run. A traced run instead
  // repeats the first scenario with the clocks on (tracing overhead), and
  // the repetition must reproduce it on the sim clock. Set-ups are timed
  // first, on a fresh heap (see SetupSeconds).
  const double setup_s = SetupSeconds([&] {
    return RunCrashOnce(opts, opts.seed, false, &out, /*setup_only=*/true).setup_s;
  });
  const int reps = opts.trace ? 2 : kSubRuns;
  std::vector<CrashRun> runs;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> goodputs;
  uint64_t failed_requests = 0;
  for (int rep = 0; rep < reps && out.errors.empty(); ++rep) {
    const uint64_t seed = opts.seed * kSubRuns + (opts.trace ? 0 : rep);
    runs.push_back(RunCrashOnce(opts, seed, /*timing=*/opts.trace && rep == 1, &out));
    CrashRun& run = runs.back();
    out.Check(SameSimClock(run, runs.front()) || !opts.trace,
              "sim-clock metrics differ between repetitions of one seed");
    p50s.push_back(Percentile(run.latencies, 0.50));
    p99s.push_back(Percentile(run.latencies, 0.99));
    goodputs.push_back(run.goodput_tps);
    out.attempted += run.attempted;
    failed_requests += run.failed_requests;
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    RemoveWalFiles(WalPath(opts.work_dir, id));
  }
  out.attempted = std::max<uint64_t>(1, out.attempted);
  out.Check(failed_requests == 0, "client requests failed");
  out.failed = failed_requests + out.errors.size();

  Values v;
  if (!opts.trace) {
    v["setup_s"] = setup_s;
    v["commit_p50_ms"] = Median(p50s);
    v["commit_p99_ms"] = Median(p99s);
    v["goodput_tps"] = Median(goodputs);
    v["peak_rss_mb"] = PeakRssMb();
    Emit(EndToEndSpecs(), v, &out);
    return out;
  }
  if (runs.size() < 2) {
    Emit(PerLayerSpecs(), v, &out);
    return out;
  }

  const CrashRun& traced = runs.back();
  const WindowCounts& w = traced.window;
  const UnitCosts unit = MeasureUnitCosts(kNodes, opts.work_dir);
  AddCommonLayers(w, unit, /*verify_signatures=*/true, &v);
  v["net.loop_cpu_share"] = traced.thread_cpu_share;
  AddAppLayers(runs.back().layers, w, unit, &v);
  v["sync.wal_records_replayed"] = static_cast<double>(traced.recovery.wal_records);
  v["sync.snapshot_vertices"] = static_cast<double>(traced.recovery.snapshot_vertices);
  v["catchup_s"] = traced.catchup_s;
  v["recovery_ms"] = runs.front().recovery_ms;
  v["commit.samples"] = static_cast<double>(traced.latencies.size());
  v["fail_ratio"] = SafeDiv(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  v["unavailable_s"] = traced.unavailable_s;
  v["host_cpu_ms_per_vertex"] = runs.front().cpu_ms_per_vertex;
  v["trace.overhead_share"] =
      SafeDiv(traced.cpu_ms_per_vertex, runs.front().cpu_ms_per_vertex) - 1.0;
  Emit(PerLayerSpecs(), v, &out);
  std::vector<const NodeTrace*> traces;
  for (const auto& t : traced.traces) {
    traces.push_back(t.get());
  }
  DumpSpans(traces, opts.work_dir + "/spans.tsv");
  return out;
}

}  // namespace perfbench
