// TCP transport hardening tests: the per-peer outbox (no silent loss to
// peers that are not up yet, across partitions or across Stop()/Start()),
// partition-and-heal with counter reconciliation, dial backoff with
// peer-health tracking, and — the chaos satellite — the Byzantine behaviour
// suite running over real sockets with the safety oracle watching every
// honest node.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/app_node.h"
#include "core/byzantine.h"
#include "fault/oracles.h"
#include "net/tcp_transport.h"

namespace clandag {
namespace {

struct CountingHandler : MessageHandler {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, MsgType>> received;

  void OnMessage(NodeId from, MsgType type, const Bytes& /*payload*/) override {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back({from, type});
    cv.notify_all();
  }

  bool WaitForCount(size_t count, int timeout_ms = 10000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return received.size() >= count; });
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return received.size();
  }
};

uint64_t Dropped(const TransportStats& s) {
  return s.preconnect_dropped + s.queue_dropped + s.partial_dropped;
}

// Sends are routed on the loop thread: wait until it has routed `count`.
bool WaitForSends(const TcpRuntime& node, uint64_t count) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (node.Stats().sends < count) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

uint16_t PickBasePort(int salt) {
  // As in transport_test.cc, but a 32-port block per process with four
  // ports per salt (0..7), above its range and the SCT suite's 24150-24160.
  return static_cast<uint16_t>(24200 + (getpid() % 40) * 32 + salt * 4);
}

TcpConfig MakeConfig(NodeId id, uint32_t n, uint16_t base_port) {
  TcpConfig config;
  config.id = id;
  config.num_nodes = n;
  config.base_port = base_port;
  config.dial_retry = Millis(20);
  config.dial_retry_cap = Millis(200);
  return config;
}

// Sends issued before the peer ever came up must wait in its outbox and go
// out on connect, not be silently dropped (the seed transport dropped them).
TEST(TcpHardening, PreConnectSendsFlushOnFirstConnect) {
  constexpr int kMsgs = 25;
  const uint16_t base_port = PickBasePort(0);
  CountingHandler handlers[2];
  TcpRuntime node0(MakeConfig(0, 2, base_port), &handlers[0]);
  node0.Start();

  // Peer 1 is not even listening yet.
  for (int i = 0; i < kMsgs; ++i) {
    node0.Send(1, static_cast<MsgType>(i), ToBytes("early"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    const TransportStats s = node0.Stats();
    EXPECT_EQ(s.sends, static_cast<uint64_t>(kMsgs));
    EXPECT_EQ(Dropped(s), 0u);
    EXPECT_GT(s.dial_failures, 0u);  // It has been retrying.
  }
  EXPECT_GT(node0.HealthOf(1).consecutive_failures, 0u);
  EXPECT_FALSE(node0.HealthOf(1).connected);

  TcpRuntime node1(MakeConfig(1, 2, base_port), &handlers[1]);
  node1.Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));
  EXPECT_TRUE(handlers[1].WaitForCount(kMsgs));

  // Conservation: every routed frame was delivered; none was dropped.
  const TransportStats s = node0.Stats();
  EXPECT_EQ(s.sends, static_cast<uint64_t>(kMsgs));
  EXPECT_EQ(Dropped(s), 0u);
  EXPECT_EQ(handlers[1].Count(), static_cast<size_t>(kMsgs));
  EXPECT_TRUE(node0.HealthOf(1).connected);
  EXPECT_EQ(node0.HealthOf(1).consecutive_failures, 0u);
  node0.Stop();
  node1.Stop();
}

// Partition (peer process dies) and heal (it comes back): every frame handed
// to Send() while the link was down is either delivered after the heal or
// shows up in a drop counter — the conservation law, end to end.
TEST(TcpHardening, PartitionHealReconcilesCounters) {
  constexpr int kDownSends = 40;
  const uint16_t base_port = PickBasePort(1);
  CountingHandler h0;
  CountingHandler h1a;
  TcpRuntime node0(MakeConfig(0, 2, base_port), &h0);
  node0.Start();
  auto node1 = std::make_unique<TcpRuntime>(MakeConfig(1, 2, base_port), &h1a);
  node1->Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));
  node0.Send(1, 1, ToBytes("baseline"));
  ASSERT_TRUE(h1a.WaitForCount(1));

  // Partition: peer 1's process goes away entirely.
  node1->Stop();
  node1.reset();
  // Wait until node 0 noticed the link is down (close or failed redial).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (node0.HealthOf(1).connected && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(node0.HealthOf(1).connected);

  for (int i = 0; i < kDownSends; ++i) {
    node0.Send(1, static_cast<MsgType>(100 + (i % 50)), ToBytes("during partition"));
  }

  // Heal: a fresh incarnation of peer 1 on the same address.
  CountingHandler h1b;
  node1 = std::make_unique<TcpRuntime>(MakeConfig(1, 2, base_port), &h1b);
  node1->Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));

  ASSERT_TRUE(WaitForSends(node0, 1 + kDownSends));
  const TransportStats s = node0.Stats();
  // Everything queued during the partition that was not dropped arrives.
  const size_t expect_delivered = static_cast<size_t>(kDownSends) - Dropped(s);
  EXPECT_TRUE(h1b.WaitForCount(expect_delivered));
  // Conservation: every routed frame was delivered or counted as dropped.
  EXPECT_EQ(s.sends, h1a.Count() + h1b.Count() + Dropped(s));
  node0.Stop();
  node1->Stop();
}

// The outbox is bounded whether or not the link is up: a frame that would
// take it past 64 MiB is dropped (newest-dropped) and counted, and the kept
// frames go out in order once the peer starts.
TEST(TcpHardening, OutboxBoundedNewestDropped) {
  constexpr uint64_t kFrames = 80;
  const uint16_t base_port = PickBasePort(2);
  CountingHandler handlers[2];
  TcpRuntime node0(MakeConfig(0, 2, base_port), &handlers[0]);
  node0.Start();
  const auto payload = std::make_shared<const Bytes>(1u << 20, 0xaa);
  for (uint64_t i = 0; i < kFrames; ++i) {
    node0.Send(1, static_cast<MsgType>(i), payload, payload->size());
  }
  ASSERT_TRUE(WaitForSends(node0, kFrames));
  const TransportStats s = node0.Stats();
  EXPECT_GT(s.preconnect_dropped, 0u);
  EXPECT_EQ(s.queue_dropped + s.partial_dropped, 0u);
  const uint64_t kept = kFrames - s.preconnect_dropped;
  EXPECT_LE(kept * payload->size(), uint64_t{64} << 20);

  TcpRuntime node1(MakeConfig(1, 2, base_port), &handlers[1]);
  node1.Start();
  EXPECT_TRUE(handlers[1].WaitForCount(kept));
  {
    std::lock_guard<std::mutex> lock(handlers[1].mu);
    ASSERT_EQ(handlers[1].received.size(), kept);
    for (uint64_t i = 0; i < kept; ++i) {
      EXPECT_EQ(handlers[1].received[i].second, static_cast<MsgType>(i));
    }
  }
  node0.Stop();
  node1.Stop();
}

// A peer that accepts connections and never reads: its 64 KiB receive
// buffer fills, then the dialler's send buffer, and the rest of the
// dialler's frames stay queued. SO_RCVBUF is set before listen() so the
// accepted socket inherits it.
int ListenSilently(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const int one = 1;
  const int rcvbuf = 64 << 10;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 || listen(fd, 1) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Stop() resets each outbox as a dead connection does: only the frame it
// had partly written is lost, and counted; every frame behind it goes out
// after the next Start().
TEST(TcpHardening, StopKeepsQueuedFramesForRestart) {
  constexpr uint64_t kFrames = 24;
  constexpr size_t kHelloBytes = 14;
  const uint16_t base_port = PickBasePort(7);
  const int listener = ListenSilently(static_cast<uint16_t>(base_port + 1));
  ASSERT_GE(listener, 0);
  CountingHandler h0;
  TcpRuntime node0(MakeConfig(0, 2, base_port), &h0);
  node0.Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));
  const int silent = accept(listener, nullptr, nullptr);
  ASSERT_GE(silent, 0);
  const auto payload = std::make_shared<const Bytes>(1u << 20, 0x5a);
  for (uint64_t i = 0; i < kFrames; ++i) {
    node0.Send(1, 7, payload, payload->size());
  }
  ASSERT_TRUE(WaitForSends(node0, kFrames));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  node0.Stop();
  const TransportStats stopped = node0.Stats();

  // The silent peer still gets every byte node 0's kernel accepted, then EOF.
  const timeval timeout{5, 0};
  setsockopt(silent, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  size_t bytes = 0;
  std::vector<uint8_t> buf(64 << 10);
  ssize_t n = 0;
  while ((n = recv(silent, buf.data(), buf.size(), 0)) > 0) {
    bytes += static_cast<size_t>(n);
  }
  EXPECT_EQ(n, 0) << "no EOF from the stopped node";
  close(silent);
  close(listener);
  ASSERT_GE(bytes, kHelloBytes);
  const uint64_t at_silent = (bytes - kHelloBytes) / (6 + payload->size());
  ASSERT_LE(at_silent + Dropped(stopped), kFrames);

  // Restart against a real peer on the silent peer's address.
  CountingHandler h1;
  TcpRuntime node1(MakeConfig(1, 2, base_port), &h1);
  node1.Start();
  node0.Start();
  ASSERT_TRUE(node0.WaitConnected(Seconds(10)));
  EXPECT_TRUE(h1.WaitForCount(kFrames - at_silent - Dropped(stopped)));
  const uint64_t delivered = h1.Count();
  const uint64_t dropped = Dropped(node0.Stats());
  EXPECT_EQ(at_silent + delivered + dropped, kFrames)
      << at_silent << " at the silent peer, " << delivered << " delivered, " << dropped
      << " dropped";
  node0.Stop();
  node1.Stop();
}

// Dial retries back off exponentially: over one second against a dead peer,
// a 20ms→200ms capped schedule attempts far fewer dials than flat-20ms would.
TEST(TcpHardening, DialBackoffSlowsRetryStorm) {
  const uint16_t base_port = PickBasePort(3);
  CountingHandler handler;
  TcpRuntime node0(MakeConfig(0, 2, base_port), &handler);
  node0.Start();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const TransportStats s = node0.Stats();
  EXPECT_GE(s.dial_attempts, 3u);   // It keeps trying...
  EXPECT_LE(s.dial_attempts, 30u);  // ...but nowhere near 1s/20ms = 50 dials.
  EXPECT_GE(node0.HealthOf(1).consecutive_failures, 3u);
  node0.Stop();
}

// Chaos satellite: every Byzantine behaviour running over real TCP sockets,
// one adversary per run, with the safety oracle tapped into every honest
// node's commit stream. Safety must hold on real transports exactly as in
// the simulator.
TEST(TcpChaos, ByzantineSuiteOverTcpPreservesSafety) {
  const ByzantineBehavior kBehaviors[] = {
      ByzantineBehavior::kEquivocateVertices,
      ByzantineBehavior::kSilentLeader,
      ByzantineBehavior::kUnjustifiedLeader,
  };
  int salt = 4;
  for (ByzantineBehavior behavior : kBehaviors) {
    constexpr uint32_t kNodes = 4;
    constexpr NodeId kByz = 1;
    const uint16_t base_port = PickBasePort(salt++);
    Keychain keychain(99, kNodes);
    ClanTopology topology = ClanTopology::Full(kNodes);
    SafetyOracle oracle(kNodes);
    oracle.SetFaulty(kByz, true);

    struct Router : MessageHandler {
      AppNode* app = nullptr;
      void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
        if (app != nullptr) {
          app->OnMessage(from, type, payload);
        }
      }
    };
    std::vector<Router> routers(kNodes);
    std::vector<std::unique_ptr<TcpRuntime>> nets(kNodes);
    std::vector<std::unique_ptr<ByzantineRuntime>> byz(kNodes);
    std::vector<std::unique_ptr<AppNode>> apps(kNodes);
    std::vector<std::atomic<uint64_t>> ordered(kNodes);

    for (NodeId id = 0; id < kNodes; ++id) {
      nets[id] = std::make_unique<TcpRuntime>(MakeConfig(id, kNodes, base_port),
                                              &routers[id]);
      Runtime* runtime = nets[id].get();
      if (id == kByz) {
        byz[id] = std::make_unique<ByzantineRuntime>(*nets[id], std::set<ByzantineBehavior>{behavior});
        runtime = byz[id].get();
      }
      AppNodeOptions options;
      options.consensus.num_nodes = kNodes;
      options.consensus.num_faults = 1;
      options.consensus.round_timeout = Millis(500);
      // Chaos coverage for the off-thread verification path: echo HMACs and
      // cert multisigs are checked on worker threads under real Byzantine
      // traffic, with in-order delivery back onto the loop thread.
      options.verify_workers = 2;
      AppNodeCallbacks callbacks;
      auto* counter = &ordered[id];
      callbacks.on_ordered = [counter, id, &oracle](const Vertex& v) {
        counter->fetch_add(1);
        oracle.OnOrdered(id, v.round, v.source);
      };
      callbacks.on_completed = [id, &oracle](const Vertex& v, const Digest& d) {
        oracle.OnCompleted(id, v.round, v.source, d);
      };
      apps[id] = std::make_unique<AppNode>(*runtime, keychain, topology, options,
                                           std::move(callbacks));
      routers[id].app = apps[id].get();
    }
    for (auto& net : nets) {
      net->Start();
    }
    for (auto& net : nets) {
      ASSERT_TRUE(net->WaitConnected(Seconds(10)));
    }
    for (NodeId id = 0; id < kNodes; ++id) {
      nets[id]->Post([&, id] {
        for (uint64_t t = 0; t < 10; ++t) {
          apps[id]->SubmitTransaction(id * 1000 + t, Bytes(32, 0x11));
        }
        apps[id]->Start();
      });
    }
    // Run until every honest node ordered a healthy chunk of DAG.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool done = false;
    while (!done && std::chrono::steady_clock::now() < deadline) {
      done = true;
      for (NodeId id = 0; id < kNodes; ++id) {
        if (id != kByz && ordered[id].load() < 40) {
          done = false;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    for (auto& net : nets) {
      net->Stop();
    }
    EXPECT_TRUE(done) << "behavior " << static_cast<int>(behavior)
                      << ": honest nodes did not make progress over TCP";
    EXPECT_EQ(oracle.Check(), "") << "behavior " << static_cast<int>(behavior);
  }
}

}  // namespace
}  // namespace clandag
