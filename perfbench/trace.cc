#include "trace.h"

#include "bench.h"
#include "common/check.h"

namespace perfbench {

using clandag::Bytes;
using clandag::MsgType;
using clandag::NodeId;
using clandag::TimeMicros;

namespace {

const char* BoundaryName(Boundary b) {
  switch (b) {
    case Boundary::kRecv: return "recv";
    case Boundary::kSend: return "send";
    case Boundary::kTimer: return "timer";
    case Boundary::kCallback: return "callback";
    case Boundary::kSubmit: return "submit";
  }
  return "?";
}

}  // namespace

NodeTrace::NodeTrace(NodeId node, bool timing, size_t span_capacity)
    : node_(node), timing_(timing), span_capacity_(span_capacity) {
  stack_.reserve(16);
  for (auto& buffer : spans_) {
    buffer.reserve(span_capacity_);
  }
}

void NodeTrace::SetTiming(bool on) {
  CLANDAG_CHECK(stack_.empty());
  timing_ = on;
}

void NodeTrace::Begin(Boundary b, uint16_t tag, uint64_t bytes, uint64_t units) {
  auto bump = [&](SpanTotals& t) {
    ++t.count;
    t.units += units;
    t.bytes += bytes;
  };
  bump(totals_[static_cast<size_t>(b)]);
  if (b == Boundary::kRecv) {
    bump(recv_[tag % kMaxMsgType]);
  } else if (b == Boundary::kSend) {
    bump(send_[tag % kMaxMsgType]);
  }
  if (!timing_) {
    return;
  }
  stack_.push_back(Frame{b, tag, next_id_++, WallNs(), 0});
}

void NodeTrace::End() {
  if (!timing_) {
    return;
  }
  const int64_t end = WallNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - f.start_ns;
  const int64_t self = dur - f.child_ns;
  SpanTotals& t = totals_[static_cast<size_t>(f.boundary)];
  t.total_ns += dur;
  t.self_ns += self;
  if (f.boundary == Boundary::kRecv) {
    recv_[f.tag % kMaxMsgType].total_ns += dur;
    recv_[f.tag % kMaxMsgType].self_ns += self;
  } else if (f.boundary == Boundary::kSend) {
    send_[f.tag % kMaxMsgType].total_ns += dur;
    send_[f.tag % kMaxMsgType].self_ns += self;
  }
  const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  std::vector<Span>& buffer = spans_[static_cast<size_t>(f.boundary)];
  if (recording_ && buffer.size() < span_capacity_) {
    buffer.push_back(Span{f.id, parent, f.start_ns, end, f.tag});
  }
}

void NodeTrace::WriteSpans(std::FILE* out) const {
  for (size_t b = 0; b < kNumBoundaries; ++b) {
    for (const Span& s : spans_[b]) {
      std::fprintf(out, "%u\t%s\t%u\t%llu\t%llu\t%lld\t%lld\n", node_,
                   BoundaryName(static_cast<Boundary>(b)), s.tag,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
}

void TracedRuntime::Schedule(TimeMicros delay, std::function<void()> fn) {
  if (!*alive_) {
    return;
  }
  inner_.Schedule(delay, [trace = &trace_, alive = alive_, fn = std::move(fn)] {
    if (!*alive) {
      return;
    }
    ScopedSpan span(*trace, Boundary::kTimer);
    fn();
  });
}

void TracedRuntime::Send(NodeId to, MsgType type, std::shared_ptr<const Bytes> payload,
                         size_t wire_size) {
  if (!*alive_) {
    return;
  }
  trace_.Begin(Boundary::kSend, type, payload->size());
  inner_.Send(to, type, std::move(payload), wire_size);
  trace_.End();
}

void TracedRuntime::Multicast(const std::vector<NodeId>& targets, MsgType type,
                              std::shared_ptr<const Bytes> payload, size_t wire_size) {
  if (!*alive_) {
    return;
  }
  // One span per fan-out, one frame (and its bytes) per target.
  trace_.Begin(Boundary::kSend, type, payload->size() * targets.size(), targets.size());
  inner_.Multicast(targets, type, std::move(payload), wire_size);
  trace_.End();
}

void TracedRuntime::Broadcast(MsgType type, std::shared_ptr<const Bytes> payload,
                              size_t wire_size) {
  if (!*alive_) {
    return;
  }
  trace_.Begin(Boundary::kSend, type, payload->size() * inner_.num_nodes(), inner_.num_nodes());
  inner_.Broadcast(type, std::move(payload), wire_size);
  trace_.End();
}

void TracedHandler::OnMessage(NodeId from, MsgType type, const Bytes& payload) {
  trace_.Begin(Boundary::kRecv, type, payload.size());
  inner_->OnMessage(from, type, payload);
  trace_.End();
}

TraceSums SumOf(const NodeTrace& trace) {
  TraceSums sums;
  for (size_t b = 0; b < kNumBoundaries; ++b) {
    sums.boundary[b] = trace.totals(static_cast<Boundary>(b));
  }
  for (MsgType type = 0; type < kMaxMsgType; ++type) {
    sums.recv[type] = trace.recv(type);
    sums.send[type] = trace.send(type);
  }
  return sums;
}

TraceSums SumTraces(const std::vector<std::unique_ptr<NodeTrace>>& traces) {
  TraceSums sums;
  for (const auto& t : traces) {
    sums += SumOf(*t);
  }
  return sums;
}

bool DumpSpans(const std::vector<const NodeTrace*>& traces, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fputs("node\tboundary\ttag\tid\tparent\tstart_ns\tend_ns\n", out);
  for (const auto& t : traces) {
    t->WriteSpans(out);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
