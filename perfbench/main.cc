// perfbench: the repository benchmark's one command.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones (see README.md). Exits 1 when any correctness check failed, 2 on a
// usage error.

#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using namespace perfbench;

void PrintJson(const RunResult& r) {
  const bool correct = r.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

const char* Arg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer socket torn down mid-write must not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  MonoMicros();  // Fix the TCP workload's clock epoch at process start.

  const char* workload = Arg(argc, argv, "--workload");
  const char* seed = Arg(argc, argv, "--seed");
  const char* seconds = Arg(argc, argv, "--seconds");
  const char* trace = Arg(argc, argv, "--trace");
  const char* work_dir = Arg(argc, argv, "--work-dir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr || trace == nullptr ||
      work_dir == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n");
    return 2;
  }
  RunOptions options;
  options.workload = workload;
  options.seed = std::strtoull(seed, nullptr, 10);
  options.seconds = std::strtod(seconds, nullptr);
  options.trace = std::strcmp(trace, "1") == 0;
  options.work_dir = work_dir;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec || options.seconds <= 0) {
    std::fprintf(stderr, "bad --work-dir or --seconds\n");
    return 2;
  }

  RunResult result;
  if (options.workload == "tcp-durable") {
    result = RunTcpDurable(options);
  } else if (options.workload == "sim-paper-n100") {
    result = RunSimPaperN100(options);
  } else if (options.workload == "sim-verified-n50") {
    result = RunSimVerifiedN50(options);
  } else if (options.workload == "sim-crash-restart") {
    result = RunSimCrashRestart(options);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  PrintJson(result);
  return result.errors.empty() ? 0 : 1;
}
