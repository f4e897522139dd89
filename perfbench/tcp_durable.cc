// tcp-durable: four AppNodes in one process over real loopback TCP, one
// event-loop thread each, with ingress, a WAL fsynced every round and
// snapshots every 64 anchor rounds. The benchmark's open-loop drivers feed
// every node from a 1 ms pump on that node's loop.
//
// Timeline: set-up (repeated; the median is setup_s), a warm-up, the
// measurement window, then a drain so in-flight requests can complete. A
// traced run splits the window: the first half untraced, the second traced;
// the p50 ratio of the halves is the tracing overhead, and the per-layer
// numbers come from the traced half.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/app_node.h"
#include "net/tcp_transport.h"
#include "observer.h"
#include "probes.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {

using namespace clandag;

namespace {

constexpr uint32_t kNodes = 4;
// 24k requests/s cluster-wide, under half the knee (48k/s commits every
// request; 64k/s collapses), leaving room for the traced half's overhead.
constexpr double kRatePerNode = 6000;
// Distinct clients per node. Well under the admission and dedup tables'
// 65,536-client bounds: a population that outgrows them within the tables'
// idle-eviction times turns long runs into capacity rejections.
constexpr uint32_t kClientsPerNode = 20000;
constexpr TimeMicros kPump = Millis(1);
constexpr TimeMicros kDrain = Millis(500);
constexpr int kSetups = 3;

AppNodeOptions NodeOptions(const std::string& wal_path) {
  AppNodeOptions options;
  options.consensus.num_nodes = kNodes;
  options.consensus.num_faults = 1;
  options.consensus.round_timeout = Seconds(1);
  options.enable_ingress = true;
  options.ingress.batcher.max_batch_wait = Millis(20);
  options.ingress.batcher.max_batch_bytes = 16 << 10;
  options.ingress.admission.global_byte_budget = 2 << 20;
  options.verify_workers = 0;
  options.wal_path = wal_path;
  options.snapshot_interval_rounds = 64;
  return options;
}

std::string WalPath(const std::string& dir, NodeId id) {
  return dir + "/tcp-node" + std::to_string(id) + ".wal";
}

// Hands each message to the node once it exists (frames can arrive while
// the mesh forms, before the AppNode is attached).
struct Router : MessageHandler {
  MessageHandler* target = nullptr;
  void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
    if (target != nullptr) {
      target->OnMessage(from, type, payload);
    }
  }
};

// Everything one node owns. Its driver, observer, trace and snapshots are
// touched only on its loop thread until the loop is stopped.
struct Node {
  Router router;
  std::unique_ptr<TcpRuntime> net;
  std::unique_ptr<NodeTrace> trace;
  std::unique_ptr<TracedRuntime> traced;
  std::unique_ptr<AppNode> app;
  std::unique_ptr<TracedHandler> handler;
  std::unique_ptr<OpenLoopDriver> driver;
  std::unique_ptr<NodeObserver> obs;
  uint64_t pending_bytes_peak = 0;
  // Snapshots at window begin, the traced half's start, and window end.
  NodeSnap snaps[3];
};

struct Cluster {
  // The nodes keep references to both.
  std::unique_ptr<Keychain> keychain;
  ClanTopology topology = ClanTopology::Full(kNodes);
  std::vector<std::unique_ptr<Node>> nodes;
  std::atomic<bool> running{true};
  std::atomic<int> started{0};
  ProcessSnap proc[3];  // Taken by node 0's pump.

  void Stop() {
    running.store(false);
    for (auto& n : nodes) {
      n->net->Stop();
    }
  }
};

struct Schedule {
  TimeMicros load_start = 0;
  TimeMicros bounds[3] = {0, 0, 0};  // Window begin, traced half, window end.
  bool split = false;
};

std::unique_ptr<Cluster> BuildCluster(const RunOptions& opts, uint16_t base_port,
                                      size_t span_capacity) {
  auto cluster = std::make_unique<Cluster>();
  cluster->keychain = std::make_unique<Keychain>(opts.seed, kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    cluster->nodes.push_back(std::make_unique<Node>());
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    Node& node = *cluster->nodes[id];
    TcpConfig tcp;
    tcp.id = id;
    tcp.num_nodes = kNodes;
    tcp.base_port = base_port;
    tcp.seed = opts.seed;
    node.net = std::make_unique<TcpRuntime>(tcp, &node.router);
    node.trace = std::make_unique<NodeTrace>(id, false, span_capacity);
    node.traced = std::make_unique<TracedRuntime>(*node.net, *node.trace);
    node.obs = std::make_unique<NodeObserver>(kNodes);

    Cluster* c = cluster.get();
    AppNodeCallbacks callbacks;
    callbacks.on_ordered = [&node](const Vertex& v) {
      ScopedSpan span(*node.trace, Boundary::kCallback);
      node.obs->OnOrdered(v, MonoMicros());
    };
    callbacks.on_client_reply = [&node](uint64_t, const ClientReplyMsg& reply) {
      ScopedSpan span(*node.trace, Boundary::kCallback);
      const TimeMicros now = MonoMicros();
      if (reply.status == ClientReplyStatus::kCommitted) {
        node.obs->OnCommittedReply(reply, now);
      }
      if (node.driver != nullptr) {
        node.driver->OnReply(reply, now);
      }
    };
    // Receipt gossip: every peer's front end needs f_c+1 receipts.
    callbacks.on_receipt = [c, &node, id](const ExecutionReceipt& receipt) {
      ScopedSpan span(*node.trace, Boundary::kCallback);
      node.obs->OnReceipt(receipt,
                          node.app->consensus().disseminator().GetBlock(receipt.proposer,
                                                                        receipt.round),
                          MonoMicros());
      for (NodeId peer = 0; peer < kNodes; ++peer) {
        if (peer != id) {
          AppNode* peer_app = c->nodes[peer]->app.get();
          c->nodes[peer]->net->Post(
              [peer_app, id, receipt] { peer_app->OnExecutorReceipt(id, receipt); });
        }
      }
    };
    const std::string wal = WalPath(opts.work_dir, id);
    RemoveWalFiles(wal);
    node.app = std::make_unique<AppNode>(*node.traced, *cluster->keychain, cluster->topology,
                                         NodeOptions(wal), std::move(callbacks));
    node.handler = std::make_unique<TracedHandler>(node.app.get(), *node.trace);
    node.router.target = node.handler.get();
  }
  return cluster;
}

// Connects the mesh and starts every node; returns false on a mesh timeout.
bool StartCluster(Cluster& cluster) {
  for (auto& n : cluster.nodes) {
    n->net->Start();
  }
  for (auto& n : cluster.nodes) {
    if (!n->net->WaitConnected(Seconds(10))) {
      return false;
    }
  }
  for (auto& n : cluster.nodes) {
    Node* node = n.get();
    Cluster* c = &cluster;
    node->net->Post([node, c] {
      node->app->Start();
      c->started.fetch_add(1);
    });
  }
  while (cluster.started.load() < static_cast<int>(kNodes)) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// One pump tick on node `id`'s loop: submit due requests, take window
// snapshots, sample the ingress byte budget, and re-arm.
void Tick(Cluster* c, NodeId id, const Schedule* sched, bool timed_half) {
  if (!c->running.load(std::memory_order_relaxed)) {
    return;
  }
  Node& node = *c->nodes[id];
  const TimeMicros now = MonoMicros();
  for (int i = 0; i < 3; ++i) {
    if (!node.snaps[i].taken && now >= sched->bounds[i]) {
      if (i == 1 && sched->split) {
        node.trace->SetTiming(timed_half);
        node.trace->SetRecording(timed_half);
      }
      if (id == 0) {
        c->proc[i] = ProcessSnap::Take();
      }
      node.snaps[i] = NodeSnap::Take(*node.app, *node.obs, *node.trace, now);
    }
  }
  node.driver->Pump(now, [&](const Bytes& frame) {
    ScopedSpan span(*node.trace, Boundary::kSubmit);
    node.app->SubmitClientRequest(frame);
  });
  node.pending_bytes_peak = std::max<uint64_t>(node.pending_bytes_peak,
                                               node.app->ingress()->PendingBytes());
  if (now >= sched->bounds[2]) {
    node.driver->Stop();
  }
  node.net->Schedule(kPump, [c, id, sched, timed_half] { Tick(c, id, sched, timed_half); });
}

// True when 127.0.0.1:port can be bound for listening right now.
bool PortFree(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const bool ok = bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  close(fd);
  return ok;
}

// A block of kNodes listening ports that binds now. Blocks lie below the
// kernel's ephemeral range (32768+), so no dialling socket of the cluster
// can be handed one of them, and start at a pid-derived offset so
// back-to-back processes do not meet each other's TIME_WAIT sockets.
uint16_t PickBasePort() {
  constexpr int kBlocks = 790;  // 20000 + 790 * 16 < 32768.
  static int next = getpid() % kBlocks;
  for (int i = 0; i < kBlocks; ++i) {
    const auto base = static_cast<uint16_t>(20000 + (next++ % kBlocks) * 16);
    bool free = true;
    for (uint16_t p = base; p < base + kNodes && free; ++p) {
      free = PortFree(p);
    }
    if (free) {
      return base;
    }
  }
  return 0;
}

}  // namespace

RunResult RunTcpDurable(const RunOptions& opts) {
  RunResult out;
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (int s = 0; s < kSetups; ++s) {
    if (cluster != nullptr) {
      cluster->Stop();
      cluster.reset();
    }
    const int64_t t0 = WallNs();
    const uint16_t base_port = PickBasePort();
    if (base_port == 0) {
      out.Check(false, "no free block of loopback ports");
      return out;
    }
    cluster = BuildCluster(opts, base_port, opts.trace ? 8192 : 0);
    if (!StartCluster(*cluster)) {
      cluster->Stop();
      out.Check(false, "tcp mesh failed to connect");
      return out;
    }
    setups.push_back(static_cast<double>(WallNs() - t0) / 1e9);
  }

  // Load: warm-up then the window, both inside --seconds.
  const TimeMicros total = static_cast<TimeMicros>(opts.seconds * 1e6);
  const TimeMicros warmup = std::min<TimeMicros>(Seconds(2), total / 5);
  Schedule sched;
  sched.load_start = MonoMicros();
  sched.bounds[0] = sched.load_start + warmup;
  sched.bounds[2] = sched.load_start + total;
  sched.split = opts.trace;
  sched.bounds[1] = opts.trace ? (sched.bounds[0] + sched.bounds[2]) / 2 : sched.bounds[0];
  for (NodeId id = 0; id < kNodes; ++id) {
    Node* node = cluster->nodes[id].get();
    DriverOptions d;
    d.seed = opts.seed;
    d.origin = id;
    d.rate_tps = kRatePerNode;
    d.clients = kClientsPerNode;
    node->driver = std::make_unique<OpenLoopDriver>(d, sched.load_start);
    node->driver->SetWindow(sched.bounds[0], sched.bounds[2]);
    Cluster* c = cluster.get();
    node->net->Post([c, id, s = &sched, timed = opts.trace] { Tick(c, id, s, timed); });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(total + kDrain));
  cluster->Stop();
  for (NodeId id = 0; id < kNodes; ++id) {
    RemoveWalFiles(WalPath(opts.work_dir, id));
  }

  // All loops are joined: everything below reads quiescent state.
  Cluster& c = *cluster;
  std::vector<double> late;
  std::vector<double> latencies_half[2];
  DriverCounts sum;
  uint64_t unanswered = 0;
  TransportStats net_stats;
  for (NodeId id = 0; id < kNodes; ++id) {
    Node& node = *c.nodes[id];
    out.Check(node.snaps[2].taken, "node missed the end of the window");
    const DriverCounts& d = node.driver->counts();
    sum.sent += d.sent;
    sum.attempted += d.attempted;
    sum.committed += d.committed;
    sum.retried += d.retried;
    sum.rejected += d.rejected;
    sum.expired += d.expired;
    sum.duplicate += d.duplicate;
    sum.unmatched += d.unmatched;
    unanswered += node.driver->Unanswered();
    for (const auto& s : node.driver->samples()) {
      latencies_half[s.due >= sched.bounds[1] ? 1 : 0].push_back(s.latency_ms());
    }
    for (const auto& [due, ms] : node.driver->late()) {
      if (due >= sched.bounds[1]) {
        late.push_back(ms);
      }
    }
    const TransportStats t = node.net->Stats();
    net_stats.queue_dropped += t.queue_dropped;
    net_stats.preconnect_dropped += t.preconnect_dropped;
    net_stats.partial_dropped += t.partial_dropped;
    // Correctness: prefix agreement and exactly-once execution.
    out.Check(PrefixAgree(node.obs->log(), c.nodes[0]->obs->log()),
              "ordered logs of node " + std::to_string(id) + " and node 0 diverge");
    const ExecutionAudit& audit = node.obs->audit();
    out.Check(audit.duplicates() == 0, "a request executed twice at node " + std::to_string(id));
    out.Check(audit.foreign() == 0, "an executed transaction matches no sent request");
    for (NodeId origin = 0; origin < kNodes; ++origin) {
      out.Check(audit.Unsent(origin, c.nodes[origin]->driver->counts().sent) == 0,
                "an executed transaction was never sent");
    }
  }
  const uint64_t dropped =
      net_stats.queue_dropped + net_stats.preconnect_dropped + net_stats.partial_dropped;
  out.Check(dropped == 0, "tcp transport dropped frames");
  out.Check(sum.unmatched == 0, "a committed reply matches no sent request");
  out.Check(sum.committed > 0, "no request committed");

  const uint64_t failed_requests =
      sum.rejected + sum.expired + sum.duplicate + unanswered + sum.unmatched;
  std::fprintf(stderr,
               "requests: %llu attempted, %llu committed, %llu re-sent, %llu rejected, "
               "%llu expired, %llu duplicate, %llu unanswered\n",
               static_cast<unsigned long long>(sum.attempted),
               static_cast<unsigned long long>(sum.committed),
               static_cast<unsigned long long>(sum.retried),
               static_cast<unsigned long long>(sum.rejected),
               static_cast<unsigned long long>(sum.expired),
               static_cast<unsigned long long>(sum.duplicate),
               static_cast<unsigned long long>(unanswered));
  out.attempted = std::max<uint64_t>(1, sum.attempted);
  out.failed = failed_requests + out.errors.size();

  const double window_s = static_cast<double>(sched.bounds[2] - sched.bounds[0]) / 1e6;
  const NodeSnap* ref = c.nodes[0]->snaps;
  Values v;
  if (!opts.trace) {
    // Latency percentiles are medians over one-second slices of the window,
    // so one host hiccup moves one slice, not the run's figure.
    std::vector<std::vector<double>> by_second(
        static_cast<size_t>((sched.bounds[2] - sched.bounds[0]) / Seconds(1)) + 1);
    for (auto& n : c.nodes) {
      for (const auto& s : n->driver->samples()) {
        by_second[static_cast<size_t>((s.due - sched.bounds[0]) / Seconds(1))].push_back(
            s.latency_ms());
      }
    }
    std::vector<double> p50s;
    std::vector<double> p99s;
    for (auto& slice : by_second) {
      if (slice.size() >= 1000) {
        p50s.push_back(Percentile(slice, 0.50));
        p99s.push_back(Percentile(slice, 0.99));
      }
    }
    v["setup_s"] = Median(setups);
    v["commit_p50_ms"] = Median(p50s);
    v["commit_p99_ms"] = Median(p99s);
    v["goodput_tps"] = static_cast<double>(sum.committed) / window_s;
    v["peak_rss_mb"] = PeakRssMb();
    Emit(EndToEndSpecs(), v, &out);
    return out;
  }

  // Per-layer numbers from the traced half [bounds[1], bounds[2]).
  WindowCounts w;
  w.nodes = kNodes;
  w.clock_s = static_cast<double>(ref[2].at - ref[1].at) / 1e6;
  w.wall_s = static_cast<double>(c.proc[2].wall_ns - c.proc[1].wall_ns) / 1e9;
  w.cpu_ms = static_cast<double>(c.proc[2].cpu_ns - c.proc[1].cpu_ns) / 1e6;
  w.vertices = ref[2].ordered - ref[1].ordered;
  w.block_vertices = ref[2].block_ordered - ref[1].block_ordered;
  w.requests = latencies_half[1].size();
  w.rounds = ref[2].round - ref[1].round;
  w.allocs = c.proc[2].allocs - c.proc[1].allocs;
  w.pool_fallbacks = c.proc[2].pool_fallbacks - c.proc[1].pool_fallbacks;
  const Committer& committer = c.nodes[0]->app->consensus().committer();
  w.anchors_committed = committer.AnchorsCommitted();
  w.anchors_skipped = committer.AnchorsSkipped();
  double loop_share = 0;
  AppLayers layers;
  layers.late_ms = late;
  for (auto& n : c.nodes) {
    const NodeSnap* s = n->snaps;
    w.trace += s[2].trace - s[1].trace;
    loop_share += SafeDiv(static_cast<double>(s[2].thread_cpu_ns - s[1].thread_cpu_ns),
                          static_cast<double>(s[2].at - s[1].at) * 1000.0) /
                  kNodes;
    layers.fsyncs += (s[2].round - s[1].round) + (s[2].anchors - s[1].anchors);
    layers.pending_bytes_peak = std::max(layers.pending_bytes_peak, n->pending_bytes_peak);
    layers.Add(*n->app, *n->obs, sched.bounds[1], sched.bounds[2]);
  }

  const UnitCosts unit = MeasureUnitCosts(kNodes, opts.work_dir);
  AddCommonLayers(w, unit, /*verify_signatures=*/true, &v);
  AddAppLayers(layers, w, unit, &v);
  v["net.dropped_frames"] = static_cast<double>(dropped);
  v["net.loop_cpu_share"] = loop_share;
  v["commit.samples"] = static_cast<double>(sum.committed);
  v["fail_ratio"] = SafeDiv(static_cast<double>(out.failed), static_cast<double>(out.attempted));
  v["trace.overhead_share"] =
      SafeDiv(Percentile(latencies_half[1], 0.5), Percentile(latencies_half[0], 0.5)) - 1.0;
  Emit(PerLayerSpecs(), v, &out);
  std::vector<const NodeTrace*> traces;
  for (auto& n : c.nodes) {
    traces.push_back(n->trace.get());
  }
  DumpSpans(traces, opts.work_dir + "/spans.tsv");
  return out;
}

}  // namespace perfbench
