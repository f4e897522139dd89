#include "consensus/clan.h"

#include <algorithm>

#include "common/check.h"
#include "common/quorum.h"

namespace clandag {

const char* DisseminationModeName(DisseminationMode mode) {
  switch (mode) {
    case DisseminationMode::kFull:
      return "full";
    case DisseminationMode::kSingleClan:
      return "single-clan";
    case DisseminationMode::kMultiClan:
      return "multi-clan";
  }
  return "?";
}

ClanTopology ClanTopology::Full(uint32_t num_nodes) {
  ClanTopology t;
  t.mode_ = DisseminationMode::kFull;
  t.num_nodes_ = num_nodes;
  std::vector<NodeId> all(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) {
    all[i] = i;
  }
  t.clans_.push_back(std::move(all));
  t.BuildIndex();
  return t;
}

ClanTopology ClanTopology::SingleClan(uint32_t num_nodes, std::vector<NodeId> members) {
  CLANDAG_CHECK(!members.empty() && members.size() <= num_nodes);
  std::sort(members.begin(), members.end());
  CLANDAG_CHECK(std::adjacent_find(members.begin(), members.end()) == members.end());
  CLANDAG_CHECK(members.back() < num_nodes);
  ClanTopology t;
  t.mode_ = DisseminationMode::kSingleClan;
  t.num_nodes_ = num_nodes;
  t.clans_.push_back(std::move(members));
  t.BuildIndex();
  return t;
}

ClanTopology ClanTopology::SingleClanSpread(uint32_t num_nodes, uint32_t clan_size) {
  CLANDAG_CHECK(clan_size >= 1 && clan_size <= num_nodes);
  std::vector<NodeId> members(clan_size);
  for (uint32_t i = 0; i < clan_size; ++i) {
    members[i] = i;
  }
  return SingleClan(num_nodes, std::move(members));
}

ClanTopology ClanTopology::SingleClanRandom(uint32_t num_nodes, uint32_t clan_size,
                                            DetRng& rng) {
  std::vector<uint32_t> sample = rng.SampleWithoutReplacement(num_nodes, clan_size);
  return SingleClan(num_nodes, std::vector<NodeId>(sample.begin(), sample.end()));
}

ClanTopology ClanTopology::MultiClan(uint32_t num_nodes, uint32_t num_clans) {
  CLANDAG_CHECK(num_clans >= 1 && num_clans <= num_nodes);
  ClanTopology t;
  t.mode_ = DisseminationMode::kMultiClan;
  t.num_nodes_ = num_nodes;
  t.clans_.resize(num_clans);
  for (NodeId i = 0; i < num_nodes; ++i) {
    t.clans_[i % num_clans].push_back(i);
  }
  t.BuildIndex();
  return t;
}

ClanTopology ClanTopology::MultiClanRandom(uint32_t num_nodes, uint32_t num_clans, DetRng& rng) {
  CLANDAG_CHECK(num_clans >= 1 && num_clans <= num_nodes);
  std::vector<NodeId> ids(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) {
    ids[i] = i;
  }
  rng.Shuffle(ids);
  ClanTopology t;
  t.mode_ = DisseminationMode::kMultiClan;
  t.num_nodes_ = num_nodes;
  t.clans_.resize(num_clans);
  for (uint32_t i = 0; i < num_nodes; ++i) {
    t.clans_[i % num_clans].push_back(ids[i]);
  }
  for (auto& clan : t.clans_) {
    std::sort(clan.begin(), clan.end());
  }
  t.BuildIndex();
  return t;
}

void ClanTopology::BuildIndex() {
  clan_index_of_.assign(num_nodes_, -1);
  for (size_t c = 0; c < clans_.size(); ++c) {
    for (NodeId id : clans_[c]) {
      CLANDAG_CHECK_MSG(clan_index_of_[id] == -1, "clans must be disjoint");
      clan_index_of_[id] = static_cast<int>(c);
    }
  }
  serving_clan_of_.assign(num_nodes_, 0);
  if (mode_ == DisseminationMode::kMultiClan) {
    for (NodeId id = 0; id < num_nodes_; ++id) {
      CLANDAG_CHECK_MSG(clan_index_of_[id] >= 0, "multi-clan must cover all nodes");
      serving_clan_of_[id] = clan_index_of_[id];
    }
  }
}

const std::vector<NodeId>& ClanTopology::BlockRecipients(NodeId proposer) const {
  CLANDAG_CHECK(proposer < num_nodes_);
  return clans_[static_cast<size_t>(serving_clan_of_[proposer])];
}

bool ClanTopology::ReceivesBlocksOf(NodeId proposer, NodeId node) const {
  CLANDAG_CHECK(proposer < num_nodes_ && node < num_nodes_);
  return clan_index_of_[node] == serving_clan_of_[proposer] && clan_index_of_[node] != -1;
}

bool ClanTopology::ProposesBlocks(NodeId proposer) const {
  CLANDAG_CHECK(proposer < num_nodes_);
  if (mode_ == DisseminationMode::kSingleClan) {
    return clan_index_of_[proposer] == 0;
  }
  return true;
}

uint32_t ClanTopology::ClanQuorumFor(NodeId proposer) const {
  return ClanQuorum(static_cast<int64_t>(BlockRecipients(proposer).size()));
}

std::string ClanTopology::Describe() const {
  std::string out = DisseminationModeName(mode_);
  out += " (n=";
  out += std::to_string(num_nodes_);
  out += ", clans:";
  for (const auto& clan : clans_) {
    out += ' ';
    out += std::to_string(clan.size());
  }
  out += ")";
  return out;
}

}  // namespace clandag
