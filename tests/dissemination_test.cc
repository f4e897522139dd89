// Tests of VertexDisseminator, the merged vertex+block RBC consensus runs.
// First the RBC properties (validity, agreement, integrity, Byzantine
// senders, lossy links) for both flavours over every clan topology shape,
// then its own paths: echo gating, block verification, pulls, repair, and
// rejection of protocol-violating messages, and last the VoteTracker that
// counts its quorums.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/quorum.h"
#include "common/rng.h"
#include "common/work_pool.h"
#include "consensus/dissemination.h"
#include "sim/network.h"

namespace clandag {
namespace {

// The RBC configurations under test: both flavours, plus the two-round
// flavour with echo and certificate checks routed through an inline
// OrderedVerifyPool (the branch nodes with verify workers take).
enum class Variant { kBracha, kTwoRound, kTwoRoundVerifyPool };

constexpr Variant kAllVariants[] = {Variant::kBracha, Variant::kTwoRound,
                                    Variant::kTwoRoundVerifyPool};

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kBracha:
      return "Bracha";
    case Variant::kTwoRound:
      return "TwoRound";
    case Variant::kTwoRoundVerifyPool:
      return "TwoRoundVerifyPool";
  }
  return "?";
}

constexpr NodeId kAnyNode = std::numeric_limits<NodeId>::max();
constexpr TimeMicros kForever = std::numeric_limits<TimeMicros>::max();

// A cluster of bare disseminators (no consensus on top), helpers to inject
// hand-crafted traffic, and link controls in the style of HotStuff's
// test_pacemaker: per-message-type drop and delay and pairwise disconnect
// (all through the network's adversary hook), and duplicate delivery.
class DissemCluster {
 public:
  struct Events {
    std::vector<Vertex> vals;
    std::vector<Vertex> completed;
    std::vector<BlockInfo> blocks;
  };

  DissemCluster(uint32_t n, ClanTopology topology, Variant variant = Variant::kTwoRound,
                bool multicast_cert = true)
      : keychain_(31, n),
        topology_(std::move(topology)),
        network_(scheduler_, LatencyMatrix::Uniform(n, Millis(5)), NetworkConfig{1e9, 0}),
        events_(n) {
    DisseminationConfig config;
    config.num_nodes = n;
    config.num_faults = (n - 1) / 3;
    config.flavor = variant == Variant::kBracha ? RbcFlavor::kBracha : RbcFlavor::kTwoRound;
    config.multicast_cert = multicast_cert;
    if (variant == Variant::kTwoRoundVerifyPool) {
      verify_pool_ = std::make_unique<OrderedVerifyPool>(
          OrderedVerifyPool::Options{.num_workers = 0}, nullptr);
      config.verify_pool = verify_pool_.get();
    }
    network_.SetAdversary([this](NodeId from, NodeId to, MsgType type, TimeMicros now) {
      return LinkDelay(from, to, type, now);
    });
    for (NodeId id = 0; id < n; ++id) {
      runtimes_.push_back(std::make_unique<SimRuntime>(network_, id));
      DisseminationCallbacks callbacks;
      callbacks.on_vertex_val = [this, id](const Vertex& v) { events_[id].vals.push_back(v); };
      callbacks.on_vertex_complete = [this, id](const Vertex& v, const Digest&) {
        events_[id].completed.push_back(v);
      };
      callbacks.on_block = [this, id](const BlockInfo& b) { events_[id].blocks.push_back(b); };
      dissems_.push_back(std::make_unique<VertexDisseminator>(*runtimes_[id], keychain_,
                                                              topology_, config,
                                                              std::move(callbacks)));
      adapters_.push_back(std::make_unique<Adapter>(this, dissems_.back().get()));
      network_.RegisterHandler(id, adapters_.back().get());
    }
  }

  // A vertex of `source` for `round`; with `block_out`, also the block it
  // commits to, carrying `payload`.
  Vertex MakeVertex(NodeId source, Round round, std::optional<BlockInfo>* block_out,
                    uint32_t tx_count = 10, Bytes payload = {}) {
    Vertex v;
    v.round = round;
    v.source = source;
    if (block_out != nullptr) {
      BlockInfo b;
      b.proposer = source;
      b.round = round;
      b.created_at = 1;
      b.tx_count = tx_count;
      b.tx_size = 512;
      b.payload = std::move(payload);
      v.block_digest = b.ComputeDigest();
      v.block_tx_count = b.tx_count;
      v.block_created_at = b.created_at;
      *block_out = b;
    }
    return v;
  }

  // Honest broadcast of `sender`'s vertex for `round`, with `value` as its
  // block's payload. A sender that may not propose blocks (single-clan
  // mode, outside the clan) broadcasts the vertex alone.
  Vertex Broadcast(NodeId sender, Round round, const Bytes& value) {
    std::optional<BlockInfo> block;
    Vertex v = MakeVertex(sender, round, topology_.ProposesBlocks(sender) ? &block : nullptr,
                          10, value);
    dissem(sender).Propose(v, block);
    return v;
  }

  // Messages of `type` from `from` to `to` are lost until sim time `until`.
  void Drop(MsgType type, NodeId from, NodeId to, TimeMicros until = kForever) {
    rules_.push_back(LinkRule{type, from, to, kDropMessage, until});
  }
  // Messages of `type` from `from` to `to` arrive `extra` late.
  void Delay(MsgType type, NodeId from, NodeId to, TimeMicros extra) {
    rules_.push_back(LinkRule{type, from, to, extra, kForever});
  }
  // Every message between `a` and `b`, either way, is lost.
  void Disconnect(NodeId a, NodeId b) {
    cut_.insert({a, b});
    cut_.insert({b, a});
  }
  // Every message is handed to its disseminator twice.
  void DuplicateDeliveries() { duplicate_ = true; }
  // Messages of `type` sent so far, dropped ones included.
  uint64_t Sent(MsgType type) const {
    auto it = sent_.find(type);
    return it == sent_.end() ? 0 : it->second;
  }

  void Run(TimeMicros t = Seconds(5)) { scheduler_.RunUntil(t); }

  VertexDisseminator& dissem(NodeId id) { return *dissems_[id]; }
  SimRuntime& runtime(NodeId id) { return *runtimes_[id]; }
  const Events& events(NodeId id) const { return events_[id]; }
  SimNetwork& network() { return network_; }

 private:
  struct LinkRule {
    MsgType type;
    NodeId from;       // kAnyNode matches every sender.
    NodeId to;         // kAnyNode matches every receiver.
    TimeMicros delay;  // kDropMessage drops.
    TimeMicros until;  // Matches messages sent before this sim time.
  };

  struct Adapter : MessageHandler {
    Adapter(const DissemCluster* cluster, VertexDisseminator* d) : cluster(cluster), dissem(d) {}
    void OnMessage(NodeId from, MsgType type, const Bytes& payload) override {
      dissem->HandleMessage(from, type, payload);
      if (cluster->duplicate_) {
        dissem->HandleMessage(from, type, payload);
      }
    }
    const DissemCluster* cluster;
    VertexDisseminator* dissem;
  };

  TimeMicros LinkDelay(NodeId from, NodeId to, MsgType type, TimeMicros now) {
    ++sent_[type];
    if (cut_.count({from, to}) > 0) {
      return kDropMessage;
    }
    TimeMicros extra = 0;
    for (const LinkRule& rule : rules_) {
      if (rule.type != type || now >= rule.until || (rule.from != kAnyNode && rule.from != from) ||
          (rule.to != kAnyNode && rule.to != to)) {
        continue;
      }
      if (rule.delay == kDropMessage) {
        return kDropMessage;
      }
      extra += rule.delay;
    }
    return extra;
  }

  Scheduler scheduler_;
  Keychain keychain_;
  ClanTopology topology_;
  SimNetwork network_;
  // Declared before the disseminators that hold it, so it outlives them.
  std::unique_ptr<OrderedVerifyPool> verify_pool_;
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
  std::vector<std::unique_ptr<VertexDisseminator>> dissems_;
  std::vector<std::unique_ptr<Adapter>> adapters_;
  std::vector<Events> events_;
  std::vector<LinkRule> rules_;
  std::set<std::pair<NodeId, NodeId>> cut_;
  bool duplicate_ = false;
  std::map<MsgType, uint64_t> sent_;
};

// Runs `body` once per topology shape at size n: Full, one clan of
// `clan_size` members, and two disjoint clans.
template <typename Fn>
void ForEachShape(uint32_t n, uint32_t clan_size, Fn&& body) {
  for (const ClanTopology& topology :
       {ClanTopology::Full(n), ClanTopology::SingleClanSpread(n, clan_size),
        ClanTopology::MultiClan(n, 2)}) {
    SCOPED_TRACE(topology.Describe());
    body(topology);
  }
}

// Whether node `id` must end up holding the blocks `sender` proposes.
bool HoldsBlocksOf(const ClanTopology& topology, NodeId sender, NodeId id) {
  return topology.ProposesBlocks(sender) && topology.ReceivesBlocksOf(sender, id);
}

// ---------------------------------------------------------------------------
// RBC properties (paper Definition 2, Figures 2 and 3).

// One cluster shape and RBC configuration. gtest prints a parameter's bytes
// into the test names, so changing this 12-byte layout renames every case.
struct RbcParam {
  uint32_t n;
  uint16_t clan_size;  // One clan {0..clan_size-1}; the whole tribe is Full.
  uint16_t num_clans;  // Non-zero: MultiClan(n, num_clans) instead.
  Variant variant;

  ClanTopology Topology() const {
    if (num_clans > 0) {
      return ClanTopology::MultiClan(n, num_clans);
    }
    if (clan_size == n) {
      return ClanTopology::Full(n);
    }
    return ClanTopology::SingleClanSpread(n, clan_size);
  }
};

class RbcValidity : public ::testing::TestWithParam<RbcParam> {};

// Validity: an honest sender's vertex completes everywhere; clan members
// also hold the block, everyone else only its digest (in the vertex).
TEST_P(RbcValidity, HonestSenderDeliversEverywhere) {
  const RbcParam p = GetParam();
  const ClanTopology topology = p.Topology();
  DissemCluster cluster(p.n, topology, p.variant);
  const Bytes value = ToBytes("the payload");
  const Vertex v = cluster.Broadcast(0, 1, value);
  cluster.Run();
  for (NodeId id = 0; id < p.n; ++id) {
    const DissemCluster::Events& ev = cluster.events(id);
    ASSERT_EQ(ev.completed.size(), 1u) << "node " << id;
    EXPECT_TRUE(ev.completed[0] == v) << "node " << id;
    if (topology.ReceivesBlocksOf(0, id)) {
      ASSERT_EQ(ev.blocks.size(), 1u) << "clan member " << id << " must hold the block";
      EXPECT_EQ(ev.blocks[0].payload, value);
      EXPECT_EQ(ev.blocks[0].ComputeDigest(), v.block_digest);
    } else {
      EXPECT_TRUE(ev.blocks.empty()) << "node " << id << " outside the clan holds the digest only";
    }
  }
}

TEST_P(RbcValidity, ConcurrentSendersAllDeliver) {
  const RbcParam p = GetParam();
  const ClanTopology topology = p.Topology();
  DissemCluster cluster(p.n, topology, p.variant);
  for (NodeId s = 0; s < p.n; ++s) {
    cluster.Broadcast(s, 3, ToBytes("value-" + std::to_string(s)));
  }
  cluster.Run();
  for (NodeId id = 0; id < p.n; ++id) {
    EXPECT_EQ(cluster.events(id).completed.size(), p.n) << "node " << id;
    size_t expected_blocks = 0;
    for (NodeId s = 0; s < p.n; ++s) {
      expected_blocks += HoldsBlocksOf(topology, s, id) ? 1 : 0;
    }
    EXPECT_EQ(cluster.events(id).blocks.size(), expected_blocks) << "node " << id;
  }
}

TEST_P(RbcValidity, MultipleRoundsIndependentInstances) {
  const RbcParam p = GetParam();
  const ClanTopology topology = p.Topology();
  DissemCluster cluster(p.n, topology, p.variant);
  cluster.Broadcast(1, 1, ToBytes("round one"));
  cluster.Broadcast(1, 2, ToBytes("round two"));
  cluster.Run();
  for (NodeId id = 0; id < p.n; ++id) {
    EXPECT_EQ(cluster.events(id).completed.size(), 2u) << "node " << id;
    EXPECT_EQ(cluster.events(id).blocks.size(), HoldsBlocksOf(topology, 1, id) ? 2u : 0u)
        << "node " << id;
  }
}

std::vector<RbcParam> ValidityParams() {
  std::vector<RbcParam> out;
  for (Variant variant : kAllVariants) {
    for (auto [n, clan_size] : {std::pair{4, 4}, {7, 4}, {10, 5}, {13, 7}, {13, 13}}) {
      out.push_back(RbcParam{static_cast<uint32_t>(n), static_cast<uint16_t>(clan_size), 0,
                             variant});
    }
    for (auto [n, num_clans] : {std::pair{7, 2}, {10, 2}, {13, 3}}) {
      out.push_back(RbcParam{static_cast<uint32_t>(n), 0, static_cast<uint16_t>(num_clans),
                             variant});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RbcValidity, ::testing::ValuesIn(ValidityParams()),
    [](const ::testing::TestParamInfo<RbcParam>& info) {
      const RbcParam& p = info.param;
      std::string name = "n";
      name += std::to_string(p.n);
      name += p.num_clans > 0 ? 'q' : 'c';
      name += std::to_string(p.num_clans > 0 ? p.num_clans : p.clan_size);
      return name + VariantName(p.variant);
    });

std::string VariantParamName(const ::testing::TestParamInfo<Variant>& info) {
  return VariantName(info.param);
}

class RbcByzantine : public ::testing::TestWithParam<Variant> {};

// A Byzantine sender pushes its block to only as many clan members as
// completion needs; the rest of the clan must pull it (paper Figure 2
// step 5 / Figure 3 step 3).
TEST_P(RbcByzantine, WithheldValueIsDownloaded) {
  const uint32_t n = 10;
  ForEachShape(n, 5, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam());
    std::optional<BlockInfo> block;
    const Vertex v = cluster.MakeVertex(0, 1, &block, 10, ToBytes("withheld"));
    const std::vector<NodeId>& clan = topology.BlockRecipients(0);
    const uint32_t outsiders = n - static_cast<uint32_t>(clan.size());
    const uint32_t quorum = ByzantineQuorum(static_cast<uint32_t>(MaxTribeFaults(n)));
    const uint32_t holders =
        std::max(topology.ClanQuorumFor(0), quorum > outsiders ? quorum - outsiders : 0);
    ASSERT_LT(holders, clan.size()) << "some clan member must be left to pull";
    cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
    for (uint32_t i = 0; i < holders; ++i) {
      cluster.runtime(0).Send(clan[i], kConsBlock, EncodeBlock(*block));
    }
    cluster.Run();
    for (NodeId id = 0; id < n; ++id) {
      ASSERT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
      if (topology.ReceivesBlocksOf(0, id)) {
        ASSERT_EQ(cluster.events(id).blocks.size(), 1u) << "clan node " << id;
        EXPECT_TRUE(cluster.events(id).blocks[0] == *block) << "clan node " << id;
      }
    }
  });
}

// An equivocating sender: even nodes get one vertex and block, odd nodes
// another. No two nodes may complete different vertices (completion may not
// happen at all).
TEST_P(RbcByzantine, EquivocationNeverSplitsDeliveries) {
  const uint32_t n = 10;
  ForEachShape(n, 6, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam());
    std::optional<BlockInfo> b1;
    std::optional<BlockInfo> b2;
    const Vertex v1 = cluster.MakeVertex(0, 1, &b1, 10, ToBytes("value one"));
    const Vertex v2 = cluster.MakeVertex(0, 1, &b2, 10, ToBytes("value two"));
    for (NodeId to = 0; to < n; ++to) {
      const bool odd = to % 2 == 1;
      cluster.runtime(0).Send(to, kConsVertexVal, EncodeVertex(odd ? v2 : v1));
      if (topology.ReceivesBlocksOf(0, to)) {
        cluster.runtime(0).Send(to, kConsBlock, EncodeBlock(odd ? *b2 : *b1));
      }
    }
    cluster.Run();
    std::optional<Digest> seen;
    for (NodeId id = 0; id < n; ++id) {
      for (const Vertex& v : cluster.events(id).completed) {
        if (!seen.has_value()) {
          seen = v.block_digest;
        }
        EXPECT_EQ(v.block_digest, *seen) << "conflicting completion at node " << id;
      }
    }
  });
}

// Integrity: a second vertex for the same (sender, round) cannot complete
// the instance again or deliver a second block.
TEST_P(RbcByzantine, IntegrityAtMostOnce) {
  const uint32_t n = 7;
  ForEachShape(n, 4, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam());
    cluster.Broadcast(2, 5, ToBytes("first"));
    cluster.Run(Seconds(2));
    std::optional<BlockInfo> block;
    const Vertex replay = cluster.MakeVertex(2, 5, &block, 10, ToBytes("second"));
    for (NodeId to = 0; to < n; ++to) {
      cluster.runtime(2).Send(to, kConsVertexVal, EncodeVertex(replay));
      cluster.runtime(2).Send(to, kConsBlock, EncodeBlock(*block));
    }
    cluster.Run(Seconds(10));
    for (NodeId id = 0; id < n; ++id) {
      EXPECT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
      EXPECT_EQ(cluster.events(id).blocks.size(), HoldsBlocksOf(topology, 2, id) ? 1u : 0u)
          << "node " << id;
    }
  });
}

// n = 13 with one clan of 4: the sender withholds its block, so no clan
// member can echo, while the 9 nodes outside the clan echo on the vertex
// alone. Those 9 echoes meet 2f+1 = 9, so only the f_c+1 clan condition
// keeps the instance from completing.
TEST_P(RbcByzantine, ClanQuorumIsTheBindingRule) {
  const uint32_t n = 13;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4), GetParam());
  std::optional<BlockInfo> block;
  const Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(3));
  ASSERT_EQ(cluster.Sent(kConsEcho), 9u * n) << "every node outside the clan echoes";
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, RbcByzantine, ::testing::ValuesIn(kAllVariants),
                         VariantParamName);

class RbcNetwork : public ::testing::TestWithParam<Variant> {};

// Node 6 loses every echo, certificate and READY until t = 2 s, and its own
// echo reaches the others at t = 3 s, long after they completed. Their
// replies to that late echo (their certificate, or their READY) are the
// only way it can complete.
TEST_P(RbcNetwork, StragglerCompletesFromRepairReplies) {
  const uint32_t n = 7;
  const NodeId straggler = 6;
  ForEachShape(n, 4, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam());
    for (MsgType type : {kConsEcho, kConsCert, kConsReady}) {
      cluster.Drop(type, kAnyNode, straggler, Seconds(2));
    }
    cluster.Delay(kConsEcho, straggler, kAnyNode, Seconds(3));
    const Vertex v = cluster.Broadcast(0, 1, ToBytes("late"));
    cluster.Run(Seconds(2));
    for (NodeId id = 0; id < straggler; ++id) {
      EXPECT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
    }
    EXPECT_TRUE(cluster.events(straggler).completed.empty());
    cluster.Run(Seconds(5));
    ASSERT_EQ(cluster.events(straggler).completed.size(), 1u);
    EXPECT_TRUE(cluster.events(straggler).completed[0] == v);
  });
}

// Node 6 never hears from the sender. Its peers' votes complete the
// instance there, and it pulls the vertex (and, in the clan, the block)
// from them.
TEST_P(RbcNetwork, NodeCutOffFromSenderPullsWhatItMissed) {
  const uint32_t n = 7;
  ForEachShape(n, 4, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam());
    cluster.Disconnect(0, 6);
    const Bytes value = ToBytes("relayed");
    const Vertex v = cluster.Broadcast(0, 1, value);
    cluster.Run();
    ASSERT_EQ(cluster.events(6).completed.size(), 1u);
    EXPECT_TRUE(cluster.events(6).completed[0] == v);
    if (topology.ReceivesBlocksOf(0, 6)) {
      ASSERT_EQ(cluster.events(6).blocks.size(), 1u);
      EXPECT_EQ(cluster.events(6).blocks[0].payload, value);
    }
  });
}

// Every message arrives twice: each instance still completes once, and each
// clan member surfaces each block once.
TEST_P(RbcNetwork, DuplicateDeliveryCompletesOnce) {
  const uint32_t n = 7;
  ForEachShape(n, 4, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam());
    cluster.DuplicateDeliveries();
    for (NodeId s = 0; s < n; ++s) {
      cluster.Broadcast(s, 1, ToBytes("twice-" + std::to_string(s)));
    }
    cluster.Run();
    for (NodeId id = 0; id < n; ++id) {
      const DissemCluster::Events& ev = cluster.events(id);
      std::set<NodeId> sources;
      for (const Vertex& v : ev.completed) {
        sources.insert(v.source);
      }
      EXPECT_EQ(ev.completed.size(), n) << "node " << id;
      EXPECT_EQ(sources.size(), n) << "node " << id;
      EXPECT_EQ(ev.vals.size(), n) << "node " << id;
      size_t expected_blocks = 0;
      for (NodeId s = 0; s < n; ++s) {
        expected_blocks += HoldsBlocksOf(topology, s, id) ? 1 : 0;
      }
      EXPECT_EQ(ev.blocks.size(), expected_blocks) << "node " << id;
    }
  });
}

// A node whose echoes are all lost still completes: from the others' READYs
// (Bracha's amplification) or from the echo-certificate they multicast
// (two-round).
TEST_P(RbcNetwork, LostEchoesCarriedByReadyOrCertificate) {
  const uint32_t n = 7;
  ForEachShape(n, 4, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam(), /*multicast_cert=*/true);
    cluster.Drop(kConsEcho, kAnyNode, 6);
    const Vertex v = cluster.Broadcast(0, 1, ToBytes("resilient"));
    cluster.Run();
    ASSERT_EQ(cluster.events(6).completed.size(), 1u);
    EXPECT_TRUE(cluster.events(6).completed[0] == v);
    EXPECT_EQ(cluster.events(6).blocks.size(), topology.ReceivesBlocksOf(0, 6) ? 1u : 0u);
  });
}

// Good-case certificate suppression still completes everywhere when every
// honest echo arrives (the optimization's stated precondition). Bracha has
// no certificate to suppress and runs as the plain good case.
TEST_P(RbcNetwork, CertSuppressionGoodCase) {
  const uint32_t n = 10;
  ForEachShape(n, 5, [&](const ClanTopology& topology) {
    DissemCluster cluster(n, topology, GetParam(), /*multicast_cert=*/false);
    cluster.Broadcast(3, 2, ToBytes("no certs"));
    cluster.Run();
    for (NodeId id = 0; id < n; ++id) {
      EXPECT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Flavors, RbcNetwork, ::testing::ValuesIn(kAllVariants),
                         VariantParamName);

// Bracha's READY amplification on its own: node 6 loses every echo and,
// with no certificate in this flavour to fall back on, completes from the
// others' READYs, block included.
TEST(BrachaRbc, DeliversDespiteLostEchoes) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::Full(n), Variant::kBracha);
  cluster.Drop(kConsEcho, kAnyNode, 6);
  const Bytes value = ToBytes("resilient");
  const Vertex v = cluster.Broadcast(0, 1, value);
  cluster.Run();
  ASSERT_EQ(cluster.events(6).completed.size(), 1u);
  EXPECT_TRUE(cluster.events(6).completed[0] == v);
  ASSERT_EQ(cluster.events(6).blocks.size(), 1u);
  EXPECT_EQ(cluster.events(6).blocks[0].payload, value);
  EXPECT_EQ(cluster.Sent(kConsCert), 0u);
  EXPECT_GT(cluster.Sent(kConsReady), 0u);
}

// A sender pushing its block to the whole tribe cannot move it out of the
// clan: nodes outside drop it and complete on the vertex alone.
TEST(TribeRbc, NonClanValueIgnored) {
  const uint32_t n = 7;
  for (Variant variant : kAllVariants) {
    SCOPED_TRACE(VariantName(variant));
    ForEachShape(n, 4, [&](const ClanTopology& topology) {
      DissemCluster cluster(n, topology, variant);
      std::optional<BlockInfo> block;
      const Vertex v = cluster.MakeVertex(0, 1, &block, 10, ToBytes("smuggled"));
      cluster.runtime(0).Broadcast(kConsBlock, EncodeBlock(*block));
      cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
      cluster.Run();
      for (NodeId id = 0; id < n; ++id) {
        const bool clan = topology.ReceivesBlocksOf(0, id);
        EXPECT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
        EXPECT_EQ(cluster.events(id).blocks.size(), clan ? 1u : 0u) << "node " << id;
        EXPECT_EQ(cluster.dissem(id).HasBlock(0, 1), clan) << "node " << id;
      }
    });
  }
}

// Crashed sender: nothing completes, and nothing wedges: the next sender's
// instance completes at every live node.
TEST(TribeRbc, CrashedSenderNoDelivery) {
  const uint32_t n = 7;
  for (Variant variant : kAllVariants) {
    SCOPED_TRACE(VariantName(variant));
    ForEachShape(n, 4, [&](const ClanTopology& topology) {
      DissemCluster cluster(n, topology, variant);
      cluster.network().SetCrashed(0, true);
      cluster.Broadcast(0, 1, ToBytes("never sent"));
      cluster.Run(Seconds(2));
      for (NodeId id = 0; id < n; ++id) {
        EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
        EXPECT_TRUE(cluster.events(id).blocks.empty()) << "node " << id;
      }
      cluster.Broadcast(1, 1, ToBytes("after the crash"));
      cluster.Run(Seconds(5));
      for (NodeId id = 1; id < n; ++id) {
        ASSERT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
        EXPECT_EQ(cluster.events(id).completed[0].source, 1u) << "node " << id;
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Disseminator paths.

TEST(Dissemination, HonestProposalCompletesEverywhere) {
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run();
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
    EXPECT_EQ(cluster.events(id).completed[0].source, 0u);
    // Only clan members (0..3) receive the block.
    EXPECT_EQ(cluster.events(id).blocks.size(), id < 4 ? 1u : 0u) << "node " << id;
  }
}

TEST(Dissemination, ClanMembersEchoOnlyWithBlock) {
  // Send the vertex but not the block: no clan member can echo, so with a
  // clan quorum of f_c+1 = 2 needed and only 3 non-clan echoes available,
  // the instance must not complete.
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  // Hand-send only the vertex VAL (no kConsBlock messages).
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(3));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
  }
}

TEST(Dissemination, BlockBeforeVertexIsVerifiedOnArrival) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  // Deliver the block first, then the vertex.
  cluster.runtime(0).Broadcast(kConsBlock, EncodeBlock(*block));
  cluster.Run(Millis(100));
  EXPECT_TRUE(cluster.events(1).blocks.empty());  // Unverified: not surfaced yet.
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(3));
  ASSERT_EQ(cluster.events(1).blocks.size(), 1u);
  ASSERT_EQ(cluster.events(1).completed.size(), 1u);
}

TEST(Dissemination, MismatchedBlockIsDropped) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  BlockInfo wrong = *block;
  wrong.tx_count += 1;  // Digest no longer matches the vertex.
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.runtime(0).Broadcast(kConsBlock, EncodeBlock(wrong));
  cluster.Run(Seconds(2));
  for (NodeId id = 1; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).blocks.empty()) << "node " << id;
    EXPECT_TRUE(cluster.events(id).completed.empty()) << "node " << id;
  }
}

TEST(Dissemination, BlockFromNonProposerRejected) {
  // Single-clan mode: node 5 is outside the clan and must not propose
  // blocks; a block-bearing vertex from it is ignored outright.
  const uint32_t n = 7;
  DissemCluster cluster(n, ClanTopology::SingleClanSpread(n, 4));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(5, 1, &block);
  cluster.runtime(5).Broadcast(kConsVertexVal, EncodeVertex(v));
  cluster.Run(Seconds(2));
  for (NodeId id = 0; id < n; ++id) {
    EXPECT_TRUE(cluster.events(id).vals.empty()) << "node " << id;
  }
}

TEST(Dissemination, VertexBodyPulledAfterQuorumWithoutBody) {
  // The sender pushes the vertex to only 3 of 4 nodes (n=4, f=1, quorum=3):
  // the echoes of those 3 complete the instance at node 3, which must pull
  // the body from an echoer before surfacing completion.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, nullptr);
  (void)block;
  Bytes encoded = EncodeVertex(v);
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(0).Send(to, kConsVertexVal, Bytes(encoded));
  }
  cluster.Run(Seconds(5));
  ASSERT_EQ(cluster.events(3).completed.size(), 1u) << "node 3 must pull and complete";
  EXPECT_EQ(cluster.events(3).completed[0].source, 0u);
}

TEST(Dissemination, WithheldBlockPulledByClanAfterCompletion) {
  // Block pushed to 3 of 4 nodes: their echoes complete the instance, and
  // the fourth node fetches the block off the critical path afterwards.
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.runtime(0).Broadcast(kConsVertexVal, EncodeVertex(v));
  Bytes block_bytes = EncodeBlock(*block);
  for (NodeId to = 0; to < 3; ++to) {
    cluster.runtime(0).Send(to, kConsBlock, Bytes(block_bytes));
  }
  cluster.Run(Seconds(5));
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_EQ(cluster.events(id).completed.size(), 1u) << "node " << id;
    EXPECT_EQ(cluster.events(id).blocks.size(), 1u) << "node " << id;
  }
}

TEST(Dissemination, PruneBelowDropsState) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(0, 1, &block);
  cluster.dissem(0).Propose(v, block);
  cluster.Run(Seconds(2));
  EXPECT_TRUE(cluster.dissem(1).HasCompleted(0, 1));
  cluster.dissem(1).PruneBelow(10);
  EXPECT_FALSE(cluster.dissem(1).HasCompleted(0, 1));
}

// A READY for a pruned round is dropped like a late ECHO or certificate:
// it must not resurrect the instance, and f+1 of them must not make the
// node amplify with a READY of its own.
TEST(Dissemination, ReadyBelowPruneFloorIsDropped) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n), Variant::kBracha);
  cluster.dissem(1).PruneBelow(10);
  RbcVoteMsg ready;
  ready.sender = 0;
  ready.round = 1;
  ready.digest = Digest::Of(ToBytes("pruned"));
  cluster.runtime(2).Send(1, kConsReady, ready.Encode());
  cluster.runtime(3).Send(1, kConsReady, ready.Encode());
  cluster.Run(Seconds(1));
  EXPECT_EQ(cluster.Sent(kConsReady), 2u) << "node 1 amplified a READY for a pruned round";
  EXPECT_FALSE(cluster.dissem(1).HasCompleted(0, 1));
}

TEST(Dissemination, HasBlockAndGetBlock) {
  const uint32_t n = 4;
  DissemCluster cluster(n, ClanTopology::Full(n));
  std::optional<BlockInfo> block;
  Vertex v = cluster.MakeVertex(2, 3, &block, 77);
  cluster.dissem(2).Propose(v, block);
  cluster.Run(Seconds(2));
  ASSERT_TRUE(cluster.dissem(0).HasBlock(2, 3));
  const BlockInfo* stored = cluster.dissem(0).GetBlock(2, 3);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->tx_count, 77u);
  EXPECT_FALSE(cluster.dissem(0).HasBlock(2, 4));
}

// ---------------------------------------------------------------------------
// VoteTracker (rbc/quorum.h): the per-digest quorum bookkeeping under every
// echo, READY and timeout quorum.

Bytes CertBytes(const MultiSig& cert) {
  Writer w;
  cert.Serialize(w);
  return w.Take();
}

// The running aggregate is order-independent: after 1, f+1, 2f+1 and all n
// votes of a random arrival order, the tracker's certificate equals
// MultiSig::Aggregate over the same votes in id order, byte for byte, and
// verifies.
TEST(VoteTracker, CertMatchesAggregateForAnyArrivalOrder) {
  const uint32_t n = 100;
  const Keychain keychain(5, n);
  const Bytes message = ToBytes("echo for (0, 1)");
  std::vector<Signature> sigs;
  for (NodeId id = 0; id < n; ++id) {
    sigs.push_back(keychain.Sign(id, message));
  }
  DetRng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<NodeId> order(n);
    for (NodeId id = 0; id < n; ++id) {
      order[id] = id;
    }
    rng.Shuffle(order);
    VoteTracker tracker(n);
    SignerBitmap signers(n);
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(tracker.Add(order[i], false, sigs[order[i]]));
      signers.Set(order[i]);
      if (i + 1 != 1 && i + 1 != 34 && i + 1 != 67 && i + 1 != n) {
        continue;
      }
      std::vector<Signature> parts;
      for (NodeId id : signers.Ids()) {
        parts.push_back(sigs[id]);
      }
      const MultiSig cert = tracker.BuildCert();
      EXPECT_EQ(CertBytes(cert), CertBytes(MultiSig::Aggregate(signers, parts)))
          << "trial " << trial << ", " << i + 1 << " votes";
      EXPECT_TRUE(cert.Verify(keychain, message)) << "trial " << trial << ", " << i + 1;
      EXPECT_EQ(cert.Count(), i + 1);
    }
  }
}

TEST(VoteTracker, RepeatedVoterChangesNothing) {
  const uint32_t n = 7;
  const Keychain keychain(5, n);
  const Bytes message = ToBytes("vote");
  VoteTracker tracker(n);
  ASSERT_TRUE(tracker.Add(2, true, keychain.Sign(2, message)));
  ASSERT_TRUE(tracker.Add(4, false, keychain.Sign(4, message)));
  const Bytes before = CertBytes(tracker.BuildCert());
  EXPECT_FALSE(tracker.Add(2, true, keychain.Sign(2, message)));
  EXPECT_FALSE(tracker.Add(4, true, keychain.Sign(4, ToBytes("other"))));
  EXPECT_FALSE(tracker.Add(4, false, std::nullopt));
  EXPECT_EQ(tracker.Count(), 2u);
  EXPECT_EQ(tracker.ClanCount(), 1u);
  EXPECT_EQ(CertBytes(tracker.BuildCert()), before);
  EXPECT_TRUE(tracker.BuildCert().Verify(keychain, message));
}

TEST(VoteTracker, ClanCountCountsOnlyInClanVotes) {
  const uint32_t n = 10;
  const std::vector<NodeId> clan = {1, 3, 5, 7};
  VoteTracker tracker(n);
  for (NodeId id : {0u, 1u, 2u, 5u, 9u}) {
    const bool in_clan = std::find(clan.begin(), clan.end(), id) != clan.end();
    ASSERT_TRUE(tracker.Add(id, in_clan, std::nullopt));
  }
  EXPECT_EQ(tracker.Count(), 5u);
  EXPECT_EQ(tracker.ClanCount(), 2u);
  EXPECT_EQ(tracker.ClanVoters(clan), (std::vector<NodeId>{1, 5}));
}

// Certificates are built only from signed votes; a tracker holding an
// unsigned vote has no certificate to give.
TEST(VoteTracker, BuildCertRequiresEveryVoterSigned) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Keychain keychain(5, 4);
  VoteTracker tracker(4);
  ASSERT_TRUE(tracker.Add(0, false, keychain.Sign(0, ToBytes("vote"))));
  ASSERT_TRUE(tracker.Add(1, false, std::nullopt));
  EXPECT_DEATH(tracker.BuildCert(), "signed_count_");
}

}  // namespace
}  // namespace clandag
