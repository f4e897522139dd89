// Host clocks and counters, plus the counting global allocator.
//
// Every thread bumps its own cache-line-padded slot, so counting stays cheap
// when the four TCP loop threads allocate at once; AllocCount() sums the
// slots. Each slot has one writer (its thread), which is why a relaxed
// load-then-store is enough.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <new>

#include "bench.h"

namespace {

constexpr int kSlots = 64;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;

// Keeps the calibration kernel's result observable, so it is not optimised
// away.
volatile uint64_t g_kernel_sink = 0;

void CountOne() {
  if (t_slot < 0) {
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  }
  std::atomic<uint64_t>& c = g_slots[t_slot].count;
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  CountOne();
  void* p = std::malloc(size > 0 ? size : 1);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  CountOne();
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded > 0 ? rounded : align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

int64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

namespace perfbench {

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Slot& s : g_slots) {
    total += s.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t WallNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

int64_t MonoMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double CalibrationKernelSeconds() {
  const int64_t start = ThreadCpuNs();
  uint64_t x = 1;
  uint64_t acc = 0;
  {
    std::vector<std::vector<uint64_t>> vectors;
    for (int i = 0; i < 3000; ++i) {
      vectors.emplace_back(48 + i % 17);
      for (uint64_t& e : vectors.back()) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;  // LCG step.
        e = x;
      }
    }
    for (const auto& v : vectors) {
      for (uint64_t e : v) {
        acc ^= e >> 7;
      }
    }
  }
  g_kernel_sink = acc;
  return static_cast<double>(ThreadCpuNs() - start) / 1e9;
}

}  // namespace perfbench

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
