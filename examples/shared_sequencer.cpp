// Shared-sequencer demo (paper §6.1): a multi-clan deployment where each
// clan serves an independent application ("rollup"). All applications'
// transactions are globally ordered by one DAG consensus; each clan executes
// only its own application's transactions and answers that application's
// clients, who accept once f_c+1 identical receipts arrive.
//
// Runs on the deterministic simulator, so every run prints the same output.
// Exits 1 if an application's client sees no confirmed block within the
// simulated-time bound, or if replicas within a clan diverge.
//
//   ./build/examples/shared_sequencer

#include <cstdio>
#include <memory>
#include <vector>

#include "core/app_node.h"
#include "sim/network.h"
#include "smr/client.h"

using namespace clandag;

int main() {
  constexpr uint32_t kNodes = 12;
  constexpr uint32_t kClans = 3;  // Three independent applications.
  constexpr uint64_t kTxsPerApp = 30;
  // Simulated time each application has to see its first confirmed block.
  constexpr TimeMicros kConfirmBound = Seconds(20);
  // Simulated time run past the last confirmation, so every clan replica
  // (not just the f_c+1 that confirmed) executes the same blocks.
  constexpr TimeMicros kSettle = Seconds(1);

  Keychain keychain(2024, kNodes);
  ClanTopology topology = ClanTopology::MultiClan(kNodes, kClans);
  std::printf("topology: %s\n", topology.Describe().c_str());

  Scheduler scheduler;
  SimNetwork network(scheduler, LatencyMatrix::Uniform(kNodes, Millis(10)),
                     NetworkConfig{1e9, 0});

  // One client per application, matching receipts f_c+1 ways.
  std::vector<ClientReplyCollector> clients;
  for (uint32_t c = 0; c < kClans; ++c) {
    clients.emplace_back(topology.ClanQuorumFor(topology.Clan(c)[0]));
  }

  std::vector<std::unique_ptr<SimRuntime>> runtimes;
  std::vector<std::unique_ptr<AppNode>> apps;
  for (NodeId id = 0; id < kNodes; ++id) {
    AppNodeOptions options;
    options.consensus.num_nodes = kNodes;
    options.consensus.num_faults = (kNodes - 1) / 3;
    options.consensus.round_timeout = Seconds(5);
    AppNodeCallbacks callbacks;
    const int clan = topology.ClanIndexOf(id);
    callbacks.on_receipt = [&clients, clan, id](const ExecutionReceipt& receipt) {
      auto confirmed = clients[clan].AddReply(id, receipt);
      if (confirmed.has_value() && confirmed->txs_executed > 0) {
        std::printf("app %d: block (round %llu, proposer %u) confirmed with %u txs\n", clan,
                    static_cast<unsigned long long>(confirmed->round), confirmed->proposer,
                    confirmed->txs_executed);
      }
    };
    runtimes.push_back(std::make_unique<SimRuntime>(network, id));
    apps.push_back(std::make_unique<AppNode>(*runtimes[id], keychain, topology, options,
                                             std::move(callbacks)));
    network.RegisterHandler(id, apps[id].get());
  }

  // Each application submits transfers to one of its clan's nodes.
  for (uint32_t c = 0; c < kClans; ++c) {
    const NodeId entry = topology.Clan(c)[0];
    for (uint64_t t = 0; t < kTxsPerApp; ++t) {
      apps[entry]->SubmitTransaction(c * 10'000 + t,
                                     EncodeTransfer(static_cast<uint32_t>(t % 5),
                                                    static_cast<uint32_t>(5 + t % 5), 1));
    }
  }
  for (auto& app : apps) {
    app->Start();
  }

  // Run until every application's client confirmed a block.
  auto confirmed_apps = [&clients] {
    uint32_t confirmed = 0;
    for (const auto& client : clients) {
      confirmed += client.ConfirmedCount() > 0 ? 1 : 0;
    }
    return confirmed;
  };
  while (confirmed_apps() < kClans && scheduler.Now() < kConfirmBound && scheduler.Step()) {
  }
  const bool all_confirmed = confirmed_apps() == kClans;
  scheduler.RunFor(kSettle);

  std::printf("\nper-node summary:\n");
  for (NodeId id = 0; id < kNodes; ++id) {
    std::printf("  node %2u (app %d): ordered %llu vertices, executed %llu blocks, state %s\n",
                id, topology.ClanIndexOf(id),
                static_cast<unsigned long long>(apps[id]->OrderedVertices()),
                static_cast<unsigned long long>(apps[id]->ExecutedBlocks()),
                apps[id]->execution().StateDigest().Brief().c_str());
  }
  std::printf("\napplications confirmed: %u/%u\n", confirmed_apps(), kClans);
  // Replicas within a clan must agree on their application state.
  bool consistent = true;
  for (uint32_t c = 0; c < kClans; ++c) {
    const auto& clan = topology.Clan(c);
    for (size_t i = 1; i < clan.size(); ++i) {
      if (!(apps[clan[i]]->execution().StateDigest() ==
            apps[clan[0]]->execution().StateDigest())) {
        consistent = false;
      }
    }
  }
  std::printf("intra-clan state consistency: %s\n", consistent ? "OK" : "VIOLATED");
  return all_confirmed && consistent ? 0 : 1;
}
