// Shared vocabulary of the benchmark: run options, the result every workload
// returns, and the host clocks and counters it is measured with.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory inside the checkout for WAL files and span dumps.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Correctness-check failures; any entry makes the run incorrect.
  std::vector<std::string> errors;
  // End-to-end metrics (untraced runs) or per-layer metrics (traced runs).
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      errors.push_back(what);
    }
  }
};

// Host clocks, in nanoseconds.
int64_t WallNs();
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();
// Steady-clock microseconds since the first call (the TCP workload's clock).
int64_t MonoMicros();

double PeakRssMb();

// Heap allocations made through operator new since process start, summed
// over all threads (alloc_count.cc replaces the global allocator).
uint64_t AllocCount();

// Nearest-rank percentile (p in [0, 1]) of `values`; sorts in place.
double Percentile(std::vector<double>& values, double p);
double Median(std::vector<double> values);

inline double SafeDiv(double num, double den) { return den > 0 ? num / den : 0.0; }

// Thread CPU seconds of a fixed kernel (allocate, fill and read 3,000 small
// vectors), about as allocation-heavy as a cluster set-up and independent of
// the library.
double CalibrationKernelSeconds();
// The kernel's nominal CPU time; setup_s is stated for a host this fast.
constexpr double kReferenceKernelS = 0.5e-3;

// setup_s of the simulator workloads. A simulated cluster sets up in about
// a millisecond of CPU, and on a shared host the same set-up runs at speeds
// up to 1.6x apart from one second to the next (n=100: medians of 1.06 to
// 1.64 ms in five processes). Each set-up is therefore followed by the
// calibration kernel, which runs at the same host speed, and is rescaled to
// the reference speed: set-up / kernel x kReferenceKernelS (the ratio read
// 2.40 to 2.52 in those processes). `once` builds and starts a cluster and
// returns its set-up CPU time; it is called until kSetupBudgetS of set-up
// has accumulated, within [kMinSetups, kMaxSetups] calls, and setup_s is
// the median. Call it before the measured run, on a fresh heap: set-ups
// timed on the heap a 1 GB run leaves behind are bimodal.
constexpr double kSetupBudgetS = 1.0;
constexpr size_t kMinSetups = 21;
constexpr size_t kMaxSetups = 5000;

template <typename SetupOnce>
double SetupSeconds(SetupOnce&& once) {
  std::vector<double> scaled;
  double total = 0;
  while ((total < kSetupBudgetS || scaled.size() < kMinSetups) && scaled.size() < kMaxSetups) {
    const double setup = once();
    total += setup;
    scaled.push_back(SafeDiv(setup, CalibrationKernelSeconds()) * kReferenceKernelS);
  }
  return Median(std::move(scaled));
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
