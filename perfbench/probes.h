// Unit-cost probes for the layers a run cannot wrap from outside: crypto,
// the DAG store and the WAL. Each probe times public calls at the sizes the
// workload uses; multiplied by the run's counts they estimate the layer's
// share of process CPU (the `*.est_share` metrics).

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct UnitCosts {
  double hmac_sign_us = 0;       // Keychain::Sign on a vote message.
  double hmac_verify_us = 0;     // Keychain::Verify on a vote message.
  double multisig_verify_us = 0;  // MultiSig::Verify with a 2f+1 quorum at n.
  double sha256_mb_s = 0;        // Sha256::Hash over a 128 KiB block.
  double dag_insert_us = 0;      // DagStore::Insert of a vertex with n strong edges.
  double dag_order_us = 0;       // DagStore::OrderHistory, per vertex it orders.
  double wal_fsync_us = 0;       // Wal::Append of a 64 B record + Wal::Sync.
};

// `wal_dir` holds the probe's scratch log (removed afterwards).
UnitCosts MeasureUnitCosts(uint32_t n, const std::string& wal_dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
