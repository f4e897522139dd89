// Counters exposed by real transports (currently TcpRuntime).
//
// All counters are cumulative over the runtime's lifetime. Each peer has
// one outbox, and the counters obey a conservation law the TCP chaos tests
// assert across partitions and restarts: every frame routed to a peer
// (`sends`) is written to its socket, counted as dropped, or still queued.
//
// Threading: snapshot of atomics; any thread may read it.

#ifndef CLANDAG_NET_TRANSPORT_STATS_H_
#define CLANDAG_NET_TRANSPORT_STATS_H_

#include <cstdint>

namespace clandag {

struct TransportStats {
  // Frames routed to a remote peer (loopback excluded).
  uint64_t sends = 0;
  // Frames rejected because the peer's outbox would pass kMaxOutQueueBytes
  // (newest-dropped): while its link was down, and while it was up.
  uint64_t preconnect_dropped = 0;
  uint64_t queue_dropped = 0;
  // Frames lost half-written when their connection died or Stop() closed it
  // (cannot be resent on a new stream without corrupting framing).
  uint64_t partial_dropped = 0;
  uint64_t dial_attempts = 0;
  uint64_t dial_failures = 0;
  // Established connections (either direction) that were torn down.
  uint64_t conns_closed = 0;
};

// Liveness of one outbound peer link.
struct PeerHealth {
  // Dial failures since the last successful connect; drives the exponential
  // backoff and is the "peer probably down" signal for operators.
  uint32_t consecutive_failures = 0;
  bool connected = false;
};

}  // namespace clandag

#endif  // CLANDAG_NET_TRANSPORT_STATS_H_
