// Tracing from outside the library: a Runtime decorator and a MessageHandler
// wrapper that sit between each node and its transport, plus spans the
// workloads open around their own calls into the node (callbacks, client
// submits).
//
// Every node has one NodeTrace, used only on that node's event-loop thread
// (the simulator's driver thread or the node's TCP loop), so it needs no
// locking. Counts are always kept; clocks are read only when timing is on,
// which is what separates a traced run from an untraced one.
//
// Spans nest: a receive span encloses the sends, timers and callbacks it
// triggers. A span's self time is its duration minus its children's, so the
// per-type receive self times exclude the transport's send cost and the
// benchmark's own callbacks. The first `span_capacity` spans of each
// boundary are kept (name, start, end, parent) in buffers allocated up front
// and written out when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/runtime.h"

namespace perfbench {

enum class Boundary : uint8_t { kRecv, kSend, kTimer, kCallback, kSubmit };
inline constexpr size_t kNumBoundaries = 5;

// Message types are small integers (consensus/wire.h, net/client_wire.h).
inline constexpr size_t kMaxMsgType = 32;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint16_t tag = 0;  // Message type for receive/send spans.
};

struct SpanTotals {
  uint64_t count = 0;  // Spans.
  uint64_t units = 0;  // Frames for sends (one per target), else spans.
  uint64_t bytes = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;

  SpanTotals& operator+=(const SpanTotals& o) {
    count += o.count;
    units += o.units;
    bytes += o.bytes;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

class NodeTrace {
 public:
  NodeTrace(clandag::NodeId node, bool timing, size_t span_capacity);

  NodeTrace(const NodeTrace&) = delete;
  NodeTrace& operator=(const NodeTrace&) = delete;

  void Begin(Boundary b, uint16_t tag = 0, uint64_t bytes = 0, uint64_t units = 1);
  void End();

  // Spans are kept only while recording (the measurement window).
  void SetRecording(bool on) { recording_ = on; }
  // Switches the clocks on or off; only between spans (no span open).
  void SetTiming(bool on);

  const SpanTotals& recv(clandag::MsgType t) const { return recv_[t % kMaxMsgType]; }
  const SpanTotals& send(clandag::MsgType t) const { return send_[t % kMaxMsgType]; }
  const SpanTotals& totals(Boundary b) const { return totals_[static_cast<size_t>(b)]; }

  void WriteSpans(std::FILE* out) const;

 private:
  struct Frame {
    Boundary boundary;
    uint16_t tag;
    uint64_t id;
    int64_t start_ns;
    int64_t child_ns;
  };

  clandag::NodeId node_;
  bool timing_;
  bool recording_ = false;
  size_t span_capacity_;
  uint64_t next_id_ = 1;
  std::vector<Frame> stack_;
  std::array<SpanTotals, kNumBoundaries> totals_{};
  std::array<SpanTotals, kMaxMsgType> recv_{};
  std::array<SpanTotals, kMaxMsgType> send_{};
  std::array<std::vector<Span>, kNumBoundaries> spans_;
};

// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(NodeTrace& trace, Boundary b, uint16_t tag = 0) : trace_(trace) {
    trace_.Begin(b, tag);
  }
  ~ScopedSpan() { trace_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  NodeTrace& trace_;
};

// Counts (and, when timing, times) every send and timer of one node, and
// gates them on `alive`: a crashed node's leftover object keeps running its
// queued timers in the simulator, and the gate turns it into a silent zombie.
class TracedRuntime final : public clandag::Runtime {
 public:
  TracedRuntime(clandag::Runtime& inner, NodeTrace& trace) : inner_(inner), trace_(trace) {}

  void SetAlive(bool alive) { *alive_ = alive; }

  using Runtime::Broadcast;
  using Runtime::Multicast;
  using Runtime::Send;
  clandag::NodeId id() const override { return inner_.id(); }
  uint32_t num_nodes() const override { return inner_.num_nodes(); }
  clandag::TimeMicros Now() const override { return inner_.Now(); }
  void Schedule(clandag::TimeMicros delay, std::function<void()> fn) override;
  void Send(clandag::NodeId to, clandag::MsgType type,
            std::shared_ptr<const clandag::Bytes> payload, size_t wire_size) override;
  void Multicast(const std::vector<clandag::NodeId>& targets, clandag::MsgType type,
                 std::shared_ptr<const clandag::Bytes> payload, size_t wire_size = 0) override;
  void Broadcast(clandag::MsgType type, std::shared_ptr<const clandag::Bytes> payload,
                 size_t wire_size = 0) override;

 private:
  clandag::Runtime& inner_;
  NodeTrace& trace_;
  // Shared with pending timer closures, which may outlive a restarted node.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// Times each delivered message by type around the wrapped node's handler.
class TracedHandler final : public clandag::MessageHandler {
 public:
  TracedHandler(clandag::MessageHandler* inner, NodeTrace& trace) : inner_(inner), trace_(trace) {}
  void OnMessage(clandag::NodeId from, clandag::MsgType type,
                 const clandag::Bytes& payload) override;

 private:
  clandag::MessageHandler* inner_;
  NodeTrace& trace_;
};

// Sums of one boundary (or one message type) over every node.
struct TraceSums {
  std::array<SpanTotals, kNumBoundaries> boundary{};
  std::array<SpanTotals, kMaxMsgType> recv{};
  std::array<SpanTotals, kMaxMsgType> send{};

  TraceSums& operator+=(const TraceSums& o) {
    for (size_t i = 0; i < kNumBoundaries; ++i) {
      boundary[i] += o.boundary[i];
    }
    for (size_t i = 0; i < kMaxMsgType; ++i) {
      recv[i] += o.recv[i];
      send[i] += o.send[i];
    }
    return *this;
  }
};
TraceSums SumOf(const NodeTrace& trace);
TraceSums SumTraces(const std::vector<std::unique_ptr<NodeTrace>>& traces);

// Writes every kept span of every node to `path` (tab-separated).
bool DumpSpans(const std::vector<const NodeTrace*>& traces, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
