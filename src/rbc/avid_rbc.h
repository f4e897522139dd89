// Erasure-coded dispersal RBC (AVID-style), the theoretical alternative the
// paper's §3 remark argues against for DAG BFT.
//
// The sender Reed-Solomon-encodes the value into n shares (any k = f+1
// reconstruct), commits to them with a share-hash vector, and sends each
// party its share. Parties echo their share to everyone (the dispersal),
// run Bracha's READY phase on the commitment digest, and deliver after
// reconstructing from k verified shares.
//
// Per instance the sender transmits O(ℓ + κn²) instead of O(n_c·ℓ), at the
// cost of encode/decode CPU and an O(nℓ/k · n) total echo volume — the
// trade-off bench_ablation_erasure quantifies against tribe-assisted RBC.
//
// Every party delivers the full value (no clan asymmetry here; this is the
// classic all-party RBC the remark discusses).

#ifndef CLANDAG_RBC_AVID_RBC_H_
#define CLANDAG_RBC_AVID_RBC_H_

#include <functional>
#include <map>
#include <optional>

#include "common/pool.h"
#include "common/quorum.h"
#include "crypto/keychain.h"
#include "crypto/reed_solomon.h"
#include "net/runtime.h"
#include "rbc/quorum.h"
#include "rbc/wire.h"

namespace clandag {

inline constexpr MsgType kAvidDisperse = 110;
inline constexpr MsgType kAvidEcho = 111;
inline constexpr MsgType kAvidReady = 112;

struct AvidConfig {
  uint32_t num_nodes = 0;
  uint32_t num_faults = 0;

  // Thresholds delegate to common/quorum.h (see clandag-quorum-literal).
  uint32_t Quorum() const { return ByzantineQuorum(num_faults); }
  uint32_t ReadyAmplify() const { return ReadyAmplifyThreshold(num_faults); }
  uint32_t DataShards() const { return ErasureDataShards(num_faults); }  // k = f+1.
};

// deliver(sender, round, digest, value)
using AvidDeliverFn =
    std::function<void(NodeId sender, Round round, const Digest& digest, const Bytes& value)>;

class AvidRbc {
 public:
  AvidRbc(Runtime& runtime, AvidConfig config, AvidDeliverFn deliver);

  void Broadcast(Round round, const Bytes& value);
  bool HandleMessage(NodeId from, MsgType type, const Bytes& payload);

  // Encode/decode CPU spent by this node (host wall time, for the ablation).
  double CodingMicros() const { return coding_micros_; }

 private:
  struct Instance {
    std::optional<Digest> commitment;    // Digest of the share-hash vector.
    std::vector<Digest> share_hashes;    // The vector itself.
    std::map<uint32_t, Bytes> shares;    // Verified shares by index.
    bool echoed = false;
    bool ready_sent = false;
    bool delivered = false;
    // NodeArena-backed (common/pool.h): vote nodes recycle across instances.
    ArenaMap<Digest, VoteTracker> echo_votes;
    ArenaMap<Digest, VoteTracker> ready_votes;
    uint32_t ready_count_at_decide = 0;
  };

  Instance& GetInstance(NodeId sender, Round round);
  void OnDisperse(NodeId from, const Bytes& payload);
  void OnEcho(NodeId from, const Bytes& payload);
  void OnReady(NodeId from, const Bytes& payload);
  void SendReady(NodeId sender, Round round, const Digest& commitment, Instance& inst);
  void TryDeliver(NodeId sender, Round round, Instance& inst);

  // Accepts (and stores) a share if it matches the commitment.
  bool AcceptShare(Instance& inst, const Digest& commitment,
                   const std::vector<Digest>& hashes, uint32_t index, Bytes share);

  Runtime& runtime_;
  AvidConfig config_;
  ReedSolomon codec_;
  AvidDeliverFn deliver_;
  std::map<std::pair<NodeId, Round>, Instance> instances_;
  double coding_micros_ = 0;
};

// Digest binding a share-hash vector (the instance commitment).
Digest AvidCommitment(const std::vector<Digest>& share_hashes);

}  // namespace clandag

#endif  // CLANDAG_RBC_AVID_RBC_H_
