#include "rbc/quorum.h"

#include "common/check.h"

namespace clandag {

bool VoteTracker::Add(NodeId voter, bool in_clan, std::optional<Signature> sig) {
  if (voters_.Test(voter)) {
    return false;
  }
  voters_.Set(voter);
  if (in_clan) {
    ++clan_count_;
  }
  if (sig.has_value()) {
    ++signed_count_;
    MultiSig::Fold(aggregate_, sig->mac.bytes());
  }
  return true;
}

std::vector<NodeId> VoteTracker::ClanVoters(const std::vector<NodeId>& clan) const {
  std::vector<NodeId> out;
  for (NodeId id : clan) {
    if (voters_.Test(id)) {
      out.push_back(id);
    }
  }
  return out;
}

MultiSig VoteTracker::BuildCert() const {
  CLANDAG_CHECK(signed_count_ == voters_.Count());
  return MultiSig(voters_, Digest(aggregate_));
}

}  // namespace clandag
