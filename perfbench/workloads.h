// The four workloads. Each builds its cluster from the library's public
// parts, measures it, checks its outputs and returns end-to-end metrics
// (untraced run) or per-layer metrics (traced run).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

RunResult RunTcpDurable(const RunOptions& options);
RunResult RunSimPaperN100(const RunOptions& options);
RunResult RunSimVerifiedN50(const RunOptions& options);
RunResult RunSimCrashRestart(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
