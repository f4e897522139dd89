// Allocs-per-commit regression guard.
//
// Links bench/alloc_counter.cc (counting global operator new), so it lives in
// its own test binary — the counter must not leak into clandag_tests. Runs
// the Figure-5a n = 50 scenario at one load point and asserts the steady-state
// allocation rate stays in pooled-memory territory. Before the buffer pool,
// single-serialize broadcast, and shared cert buffers, this scenario cost
// ~10,700 allocs per committed vertex; with them it cost ~1,100, and it costs
// ~920 since vote trackers fold signatures into a running aggregate instead
// of keeping them (the n = 150 case below: ~3,160 -> ~2,630). The bound is
// loose enough for allocator noise and small protocol changes, tight enough
// that losing any one of the pooling layers (each worth thousands of allocs
// per commit) fails the test.

#include <gtest/gtest.h>

#include "bench/alloc_counter.h"
#include "core/scenario.h"

namespace clandag {
namespace {

TEST(AllocRegression, SteadyStateAllocsPerCommitStaysPooled) {
  ScenarioOptions options;
  options.num_nodes = 50;
  options.mode = DisseminationMode::kSingleClan;
  options.clan_size = 32;
  options.num_clans = 2;
  options.txs_per_proposal = 500;
  options.tx_size = 512;
  options.topology = ScenarioOptions::Topology::kGcpGeo;
  options.uplink_bytes_per_sec = 125e6;
  options.flavor = RbcFlavor::kTwoRound;
  options.multicast_cert = false;
  options.verify_signatures = false;
  options.cost.enabled = true;
  options.cost.per_message = 20;
  options.cost.per_block_byte_us = 0.002;
  options.round_timeout = Seconds(60);
  options.warmup_rounds = 3;
  options.measure_rounds = 6;

  const bench::AllocSnapshot before = bench::ReadAllocCounter();
  const ScenarioResult result = RunScenario(options);
  const bench::AllocSnapshot after = bench::ReadAllocCounter();

  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.agreement_ok);
  ASSERT_GT(result.ordered_vertices, 0u);

  const double allocs_per_commit =
      static_cast<double>(after.allocs - before.allocs) /
      static_cast<double>(result.ordered_vertices);
  RecordProperty("allocs_per_commit", static_cast<int>(allocs_per_commit));
  EXPECT_LT(allocs_per_commit, 1500.0)
      << "allocs/commit regressed toward pre-pool levels (~10,700); "
         "profile with bench_fig5a_n50 before relaxing this bound";
}

// The n = 150 Figure-6 shape at one quick load point: the vote-tracker and
// DAG-index arenas matter most at large n, where per-round map churn scales
// with the committee. Kept quick (few measured rounds) so the gate stays
// cheap enough for every CI run; the full sweep lives in bench_fig6.
TEST(AllocRegression, N150AllocsPerCommitStaysArenaBacked) {
  ScenarioOptions options;
  options.num_nodes = 150;
  options.mode = DisseminationMode::kFull;
  options.clan_size = 80;
  options.num_clans = 2;
  options.txs_per_proposal = 250;
  options.tx_size = 512;
  options.topology = ScenarioOptions::Topology::kGcpGeo;
  options.uplink_bytes_per_sec = 125e6;
  options.flavor = RbcFlavor::kTwoRound;
  options.multicast_cert = false;
  options.verify_signatures = false;
  options.cost.enabled = true;
  options.cost.per_message = 20;
  options.cost.per_block_byte_us = 0.002;
  options.round_timeout = Seconds(60);
  options.warmup_rounds = 2;
  options.measure_rounds = 3;

  const bench::AllocSnapshot before = bench::ReadAllocCounter();
  const ScenarioResult result = RunScenario(options);
  const bench::AllocSnapshot after = bench::ReadAllocCounter();

  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.agreement_ok);
  ASSERT_GT(result.ordered_vertices, 0u);

  const double allocs_per_commit =
      static_cast<double>(after.allocs - before.allocs) /
      static_cast<double>(result.ordered_vertices);
  RecordProperty("allocs_per_commit", static_cast<int>(allocs_per_commit));
  EXPECT_LT(allocs_per_commit, 3600.0)
      << "n=150 allocs/commit regressed past the pre-arena figure (~3,622); "
         "profile with bench_fig6_tput_vs_load before relaxing this bound";
}

}  // namespace
}  // namespace clandag
