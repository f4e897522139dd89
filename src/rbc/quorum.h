// Vote bookkeeping for broadcast quorums.

#ifndef CLANDAG_RBC_QUORUM_H_
#define CLANDAG_RBC_QUORUM_H_

#include <optional>
#include <vector>

#include "crypto/multisig.h"

namespace clandag {

// Counts distinct voters for one (instance, digest) pair, tracking how many
// come from inside a clan and folding signatures into a certificate as they
// arrive.
//
// The certificate is the voter bitmap plus a running 32-byte aggregate
// (MultiSig::Fold), so a tracker holds no per-vote storage and builds its
// certificate without a copy or a sort. It lives in NodeArena slots (ArenaMap<Digest, VoteTracker>): keep
// the node — tree header, key and this object, ~168 B — within
// NodeArena::kSlotBytes, or every node silently falls back to the heap.
class VoteTracker {
 public:
  explicit VoteTracker(uint32_t num_nodes) : voters_(num_nodes) {}

  // Returns true iff `voter` had not voted here before.
  bool Add(NodeId voter, bool in_clan, std::optional<Signature> sig);

  uint32_t Count() const { return voters_.Count(); }
  uint32_t ClanCount() const { return clan_count_; }
  bool Voted(NodeId voter) const { return voters_.Test(voter); }
  const SignerBitmap& voters() const { return voters_; }

  // Voters from the clan, in id order (value-holders for pulls).
  std::vector<NodeId> ClanVoters(const std::vector<NodeId>& clan) const;

  // The certificate over every vote so far. Only for trackers fed signed
  // votes: CHECKs that every voter signed.
  MultiSig BuildCert() const;

 private:
  SignerBitmap voters_;
  uint32_t clan_count_ = 0;
  uint32_t signed_count_ = 0;
  Sha256::DigestBytes aggregate_{};  // MultiSig::Fold of every signature.
};

}  // namespace clandag

#endif  // CLANDAG_RBC_QUORUM_H_
