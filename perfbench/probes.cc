#include "probes.h"

#include <cstdio>
#include <vector>

#include "bench.h"
#include "crypto/keychain.h"
#include "crypto/multisig.h"
#include "crypto/sha256.h"
#include "dag/dag_store.h"
#include "rbc/wire.h"
#include "sync/wal.h"

namespace perfbench {

using namespace clandag;

namespace {

constexpr int kBatches = 5;

// Median over kBatches of the mean cost (us) of one `op` call, `reps` calls
// per batch. `sink` keeps results observable so no call is folded away.
template <typename Op>
double MedianUs(int reps, Op&& op) {
  std::vector<double> batches;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t start = WallNs();
    for (int i = 0; i < reps; ++i) {
      op(i);
    }
    batches.push_back(static_cast<double>(WallNs() - start) / 1000.0 / reps);
  }
  return Median(batches);
}

volatile uint64_t g_sink = 0;
void Keep(uint64_t x) { g_sink = g_sink + x; }

// A DAG of `rounds` full rounds over n sources, every vertex strong-edged to
// the whole previous round (the workloads' round shape).
std::vector<Vertex> MakeRounds(uint32_t n, Round rounds) {
  DagStore dag(n);
  std::vector<Vertex> out;
  for (Round r = 0; r < rounds; ++r) {
    for (NodeId src = 0; src < n; ++src) {
      Vertex v;
      v.round = r;
      v.source = src;
      if (r > 0) {
        for (NodeId p = 0; p < n; ++p) {
          v.strong_edges.push_back(StrongEdge{p, *dag.DigestOf(r - 1, p)});
        }
      }
      dag.Insert(v);
      out.push_back(std::move(v));
    }
  }
  return out;
}

}  // namespace

UnitCosts MeasureUnitCosts(uint32_t n, const std::string& wal_dir) {
  UnitCosts c;
  const Keychain keychain(7, n);
  Writer w;
  RbcVoteMsg::SignedMessageTo(w, 3, 1, 42, Digest::Of(Bytes(32, 0x5a)));
  const Bytes vote = w.Take();
  const Signature sig = keychain.Sign(1, vote);
  c.hmac_sign_us = MedianUs(2000, [&](int i) {
    Keep(keychain.Sign(static_cast<NodeId>(i) % n, vote).mac.bytes()[0]);
  });
  c.hmac_verify_us =
      MedianUs(2000, [&](int) { Keep(keychain.Verify(1, vote, sig) ? 1 : 0); });

  SignerBitmap signers(n);
  std::vector<Signature> parts;
  for (NodeId id = 0; id < (2 * n) / 3 + 1; ++id) {
    signers.Set(id);
    parts.push_back(keychain.Sign(id, vote));
  }
  const MultiSig multisig = MultiSig::Aggregate(signers, parts);
  // Batches of tens of milliseconds each: with 40 calls per batch, the
  // n=50 cost read 48 to 89 us from one run to the next.
  c.multisig_verify_us =
      MedianUs(400, [&](int) { Keep(multisig.Verify(keychain, vote) ? 1 : 0); });

  const Bytes block(128u << 10, 0xcd);
  const double hash_us = MedianUs(40, [&](int) { Keep(Sha256::Hash(block)[0]); });
  c.sha256_mb_s = SafeDiv(static_cast<double>(block.size()) / 1e6, hash_us / 1e6);

  // DAG: insert a fresh store's worth of rounds, then order the last leader's
  // causal history (every vertex below it).
  constexpr Round kRounds = 6;
  const std::vector<Vertex> vertices = MakeRounds(n, kRounds);
  std::vector<double> insert_us;
  std::vector<double> order_us;
  for (int b = 0; b < kBatches; ++b) {
    DagStore dag(n);
    const int64_t t0 = WallNs();
    for (const Vertex& v : vertices) {
      Keep(dag.Insert(v) ? 1 : 0);
    }
    const int64_t t1 = WallNs();
    const size_t ordered = dag.OrderHistory(kRounds - 1, 0).size();
    const int64_t t2 = WallNs();
    insert_us.push_back(static_cast<double>(t1 - t0) / 1000.0 / vertices.size());
    order_us.push_back(SafeDiv(static_cast<double>(t2 - t1) / 1000.0, ordered));
  }
  c.dag_insert_us = Median(insert_us);
  c.dag_order_us = Median(order_us);

  const std::string wal_path = wal_dir + "/probe.wal";
  std::remove(wal_path.c_str());
  Wal wal(wal_path);
  if (wal.Open()) {
    const Bytes record(64, 0x11);
    c.wal_fsync_us = MedianUs(20, [&](int) {
      wal.Append(record);
      wal.Sync();
    });
    wal.Close();
  }
  std::remove(wal_path.c_str());
  return c;
}

}  // namespace perfbench
