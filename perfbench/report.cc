#include "report.h"

#include <set>

#include "consensus/wire.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"commit_p50_ms", "ms"},
      {"commit_p99_ms", "ms"},
      {"goodput_tps", "tx/s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

namespace {

// The consensus message types reported one by one.
struct NamedType {
  const char* name;
  clandag::MsgType type;
};
constexpr NamedType kRecvTypes[] = {
    {"val", clandag::kConsVertexVal}, {"block", clandag::kConsBlock},
    {"echo", clandag::kConsEcho},     {"cert", clandag::kConsCert},
    {"novote", clandag::kConsNoVote}, {"timeout", clandag::kConsTimeout},
};

std::vector<MetricSpec> BuildPerLayerSpecs() {
  std::vector<MetricSpec> specs = {
      {"net.frames_per_vertex", "count"},
      {"net.bytes_per_request", "bytes"},
      {"net.send_us", "us"},
      {"net.dropped_frames", "count"},
      {"net.loop_cpu_share", "share"},
  };
  // Names must outlive the specs; the table is built once.
  static std::vector<std::string> names;
  for (const NamedType& t : kRecvTypes) {
    names.push_back(std::string("consensus.recv.") + t.name + ".per_vertex");
    names.push_back(std::string("consensus.recv.") + t.name + ".self_us");
  }
  for (size_t i = 0; i < names.size(); i += 2) {
    specs.push_back({names[i].c_str(), "count"});
    specs.push_back({names[i + 1].c_str(), "us"});
  }
  const std::vector<MetricSpec> rest = {
      {"consensus.rounds_per_s", "1/s"},
      {"consensus.block_vertex_share", "share"},
      {"consensus.anchor_commit_ratio", "share"},
      {"consensus.timer_us", "us"},
      {"crypto.hmac_verify_us", "us"},
      {"crypto.multisig_verify_us", "us"},
      {"crypto.sha256_mb_s", "MB/s"},
      {"crypto.est_share", "share"},
      {"dag.insert_us", "us"},
      {"dag.order_history_us", "us"},
      {"dag.est_share", "share"},
      {"ingress.submit_us", "us"},
      {"ingress.txs_per_batch", "count"},
      {"ingress.deadline_close_share", "share"},
      {"ingress.reject_share", "share"},
      {"ingress.pending_bytes_peak", "bytes"},
      {"loadgen.late_p99_ms", "ms"},
      {"smr.exec_lag_ms", "ms"},
      {"smr.reply_quorum_ms", "ms"},
      {"sync.wal_fsync_us", "us"},
      {"sync.est_share", "share"},
      {"sync.snapshots_written", "count"},
      {"sync.wal_records_replayed", "count"},
      {"sync.snapshot_vertices", "count"},
      {"sync.fetch_requests", "count"},
      {"sync.fetch_retry_ratio", "share"},
      {"sync.vertices_fetched", "count"},
      {"sync.snapshot_chunk_retries", "count"},
      {"catchup_s", "s"},
      {"recovery_ms", "ms"},
      {"sim.events_per_vertex", "count"},
      {"sim.bytes_per_vertex", "bytes"},
      {"sim.self_share", "share"},
      {"alloc.per_vertex", "count"},
      {"alloc.per_request", "count"},
      {"pool.heap_fallbacks", "count"},
      {"host_cpu_ms_per_vertex", "ms"},
      {"cpu.ms_per_request", "ms"},
      {"commit.samples", "count"},
      {"fail_ratio", "share"},
      {"unavailable_s", "s"},
      {"trace.overhead_share", "share"},
  };
  specs.insert(specs.end(), rest.begin(), rest.end());
  return specs;
}

}  // namespace

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = BuildPerLayerSpecs();
  return specs;
}

void Emit(const std::vector<MetricSpec>& specs, const Values& values, RunResult* result) {
  std::set<std::string> known;
  for (const MetricSpec& spec : specs) {
    known.insert(spec.name);
    auto it = values.find(spec.name);
    result->Add(spec.name, it != values.end() ? it->second : 0.0, spec.unit);
  }
  for (const auto& [name, value] : values) {
    result->Check(known.count(name) != 0, "metric outside the catalogue: " + name);
  }
}

SpanTotals operator-(const SpanTotals& a, const SpanTotals& b) {
  SpanTotals d;
  d.count = a.count - b.count;
  d.units = a.units - b.units;
  d.bytes = a.bytes - b.bytes;
  d.total_ns = a.total_ns - b.total_ns;
  d.self_ns = a.self_ns - b.self_ns;
  return d;
}

TraceSums operator-(const TraceSums& a, const TraceSums& b) {
  TraceSums d;
  for (size_t i = 0; i < kNumBoundaries; ++i) {
    d.boundary[i] = a.boundary[i] - b.boundary[i];
  }
  for (size_t i = 0; i < kMaxMsgType; ++i) {
    d.recv[i] = a.recv[i] - b.recv[i];
    d.send[i] = a.send[i] - b.send[i];
  }
  return d;
}

namespace {

double MeanUs(const SpanTotals& t, bool self = false) {
  return SafeDiv(static_cast<double>(self ? t.self_ns : t.total_ns) / 1000.0,
                 static_cast<double>(t.count));
}

}  // namespace

void AddCommonLayers(const WindowCounts& w, const UnitCosts& unit, bool verify_signatures,
                     Values* values) {
  Values& v = *values;
  const double vertices = static_cast<double>(w.vertices);
  const double requests = static_cast<double>(w.requests);
  const double cpu_us = w.cpu_ms * 1000.0;
  const SpanTotals& sends = w.trace.boundary[static_cast<size_t>(Boundary::kSend)];
  const SpanTotals& timers = w.trace.boundary[static_cast<size_t>(Boundary::kTimer)];

  v["net.frames_per_vertex"] = SafeDiv(static_cast<double>(sends.units), vertices);
  v["net.bytes_per_request"] = SafeDiv(static_cast<double>(sends.bytes), requests);
  v["net.send_us"] = MeanUs(sends);

  for (const NamedType& t : kRecvTypes) {
    const SpanTotals& r = w.trace.recv[t.type];
    v[std::string("consensus.recv.") + t.name + ".per_vertex"] =
        SafeDiv(static_cast<double>(r.count), vertices);
    v[std::string("consensus.recv.") + t.name + ".self_us"] = MeanUs(r, /*self=*/true);
  }
  v["consensus.rounds_per_s"] = SafeDiv(static_cast<double>(w.rounds), w.clock_s);
  v["consensus.block_vertex_share"] = SafeDiv(static_cast<double>(w.block_vertices), vertices);
  v["consensus.anchor_commit_ratio"] =
      SafeDiv(static_cast<double>(w.anchors_committed),
              static_cast<double>(w.anchors_committed + w.anchors_skipped));
  v["consensus.timer_us"] = MeanUs(timers);

  v["crypto.hmac_verify_us"] = unit.hmac_verify_us;
  v["crypto.multisig_verify_us"] = unit.multisig_verify_us;
  v["crypto.sha256_mb_s"] = unit.sha256_mb_s;
  using clandag::kConsBlock;
  using clandag::kConsCert;
  using clandag::kConsEcho;
  using clandag::kConsVertexVal;
  // Every echo broadcast is signed; received echoes and certificates are
  // verified only when the workload turns verification on. Vertex and block
  // bodies are hashed on receipt.
  double crypto_us = unit.hmac_sign_us * static_cast<double>(w.trace.send[kConsEcho].count);
  if (verify_signatures) {
    crypto_us += unit.hmac_verify_us * static_cast<double>(w.trace.recv[kConsEcho].count) +
                 unit.multisig_verify_us * static_cast<double>(w.trace.recv[kConsCert].count);
  }
  const double hashed_mb =
      static_cast<double>(w.trace.recv[kConsVertexVal].bytes + w.trace.recv[kConsBlock].bytes) /
      1e6;
  crypto_us += SafeDiv(hashed_mb, unit.sha256_mb_s) * 1e6;
  v["crypto.est_share"] = SafeDiv(crypto_us, cpu_us);

  v["dag.insert_us"] = unit.dag_insert_us;
  v["dag.order_history_us"] = unit.dag_order_us;
  // Every node inserts and orders every vertex of the agreed log.
  const double dag_us =
      (unit.dag_insert_us + unit.dag_order_us) * vertices * static_cast<double>(w.nodes);
  v["dag.est_share"] = SafeDiv(dag_us, cpu_us);

  v["sync.wal_fsync_us"] = unit.wal_fsync_us;

  if (w.sim_events > 0) {
    const SpanTotals& recvs = w.trace.boundary[static_cast<size_t>(Boundary::kRecv)];
    v["sim.events_per_vertex"] = SafeDiv(static_cast<double>(w.sim_events), vertices);
    v["sim.bytes_per_vertex"] = SafeDiv(static_cast<double>(w.sim_bytes), vertices);
    // Against wall time: the crash-restart simulation blocks in WAL fsyncs.
    const double wall_us = w.wall_s * 1e6;
    const double wrapped_us = static_cast<double>(recvs.total_ns + timers.total_ns) / 1000.0;
    v["sim.self_share"] = SafeDiv(wall_us - wrapped_us, wall_us);
  }

  v["alloc.per_vertex"] = SafeDiv(static_cast<double>(w.allocs), vertices);
  v["alloc.per_request"] = SafeDiv(static_cast<double>(w.allocs), requests);
  v["pool.heap_fallbacks"] = static_cast<double>(w.pool_fallbacks);
  v["host_cpu_ms_per_vertex"] = SafeDiv(w.cpu_ms, vertices);
  v["cpu.ms_per_request"] = SafeDiv(w.cpu_ms, requests);
}

void AddSyncCounts(const clandag::SyncStats& sync, Values* values) {
  Values& v = *values;
  v["sync.snapshots_written"] = static_cast<double>(sync.snapshots_written);
  v["sync.fetch_requests"] = static_cast<double>(sync.requests_sent);
  v["sync.fetch_retry_ratio"] =
      SafeDiv(static_cast<double>(sync.retries), static_cast<double>(sync.requests_sent));
  v["sync.vertices_fetched"] = static_cast<double>(sync.vertices_fetched);
  v["sync.snapshot_chunk_retries"] = static_cast<double>(sync.snapshot_chunk_retries);
}

}  // namespace perfbench
