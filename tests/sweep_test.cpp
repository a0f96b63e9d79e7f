// The sweep engine's determinism contract (common/sweep.h): trial i's
// result is a pure function of (base_seed, i) — independent of the thread
// count, the total trial count, and the order trials execute — and the
// engine returns results in trial order. Plus the zero-allocation
// steady-state contract of the slot loop, checked end-to-end through a real
// coloring run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_counter.h"
#include "common/rng.h"
#include "common/sweep.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"

namespace sinrcolor {
namespace {

graph::UnitDiskGraph dense_graph(std::size_t n, double avg_degree,
                                 std::uint64_t seed) {
  const double side = std::sqrt(static_cast<double>(n) * M_PI / avg_degree);
  common::Rng rng(seed);
  return {geometry::uniform_deployment(n, side, rng), 1.0};
}

TEST(TrialSeedTest, PureFunctionOfBaseAndIndex) {
  EXPECT_EQ(common::trial_seed(7, 0), common::trial_seed(7, 0));
  EXPECT_NE(common::trial_seed(7, 0), common::trial_seed(7, 1));
  EXPECT_NE(common::trial_seed(7, 0), common::trial_seed(8, 0));
}

TEST(TrialSeedTest, DomainSeparatedFromPerNodeStreams) {
  // A trial stream must never coincide with a per-node stream of the same
  // seed, or trial t would correlate with node t's randomness.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_NE(common::trial_seed(42, i), common::derive_seed(42, i));
  }
}

TEST(TrialSeedTest, NoCollisionsAcrossManyTrials) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seeds.push_back(common::trial_seed(1, i));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// A cheap deterministic "trial": hash a few draws from the trial's stream.
std::uint64_t digest_trial(const common::TrialContext& ctx) {
  common::Rng rng(ctx.seed);
  std::uint64_t h = ctx.index;
  for (int i = 0; i < 8; ++i) h = h * 31 + rng();
  return h;
}

TEST(SweepEngineTest, ResultsIndexedByTrial) {
  common::SweepEngine engine(1);
  const auto results = engine.run(16, 99, [](const common::TrialContext& ctx) {
    return ctx.index;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(SweepEngineTest, ThreadCountNeverChangesResults) {
  common::SweepEngine serial(1);
  const auto expect = serial.run(33, 5, digest_trial);
  // 64 is wider than the sweep: only 33 trials' worth of threads start.
  for (std::size_t threads : {2u, 4u, 7u, 64u}) {
    common::SweepEngine engine(threads);
    EXPECT_EQ(engine.run(33, 5, digest_trial), expect)
        << "results diverged at " << threads << " threads";
  }
}

TEST(SweepEngineTest, NarrowSweepsRunOnTheCallingThread) {
  // Width 1, and a one-trial sweep at any width, fork nothing: every trial
  // runs inline on the caller's thread.
  const std::thread::id caller = std::this_thread::get_id();
  const auto on_caller = [caller](const common::TrialContext&) {
    return std::this_thread::get_id() == caller ? 1 : 0;
  };
  const auto serial = common::SweepEngine(1).run(9, 1, on_caller);
  EXPECT_EQ(serial, std::vector<int>(9, 1));
  const auto single = common::SweepEngine(4).run(1, 1, on_caller);
  EXPECT_EQ(single, std::vector<int>{1});
}

TEST(SweepEngineTest, TrialCountNeverChangesEarlierTrials) {
  // Trial i's result must not depend on how many trials run after it: a
  // 10-trial sweep's prefix equals the 40-trial sweep's first 10 results.
  common::SweepEngine engine(3);
  const auto small = engine.run(10, 77, digest_trial);
  const auto large = engine.run(40, 77, digest_trial);
  ASSERT_EQ(small.size(), 10u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i], large[i]) << "trial " << i;
  }
}

TEST(SweepEngineTest, ExecutionOrderInvisible) {
  // Perturb scheduling: trials stall different amounts depending on claim
  // order. Results must still be the pure per-index digests, in order.
  common::SweepEngine serial(1);
  const auto expect = serial.run(24, 3, digest_trial);
  common::SweepEngine engine(4);
  std::atomic<int> turn{0};
  const auto got = engine.run(24, 3, [&](const common::TrialContext& ctx) {
    const int my_turn = turn.fetch_add(1);
    volatile std::uint64_t spin = 0;
    for (int i = 0; i < (my_turn % 5) * 20000; ++i) spin = spin * 31 + 1;
    return digest_trial(ctx);
  });
  EXPECT_EQ(got, expect);
}

TEST(SweepEngineTest, TimingCoversEveryTrial) {
  common::SweepEngine engine(2);
  common::SweepTiming timing;
  engine.run(9, 1, digest_trial, &timing);
  ASSERT_EQ(timing.trial_us.size(), 9u);
  EXPECT_GE(timing.p95_us(), timing.p50_us());
  EXPECT_GE(timing.max_us(), timing.p95_us());
  EXPECT_GE(timing.total_us, 0u);
}

TEST(SweepEngineTest, ZeroTrialsIsANoop) {
  common::SweepEngine engine(4);
  common::SweepTiming timing;
  const auto results = engine.run(0, 1, digest_trial, &timing);
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(timing.trial_us.empty());
}

// End-to-end over the real protocol: a parallel sweep of full coloring runs
// is byte-equal to the serial sweep, and every run's slot loop went
// allocation-free in steady state (the SINRCOLOR_COUNT_ALLOCS build checks
// the counter; sanitizer builds check determinism only).
TEST(SweepEngineTest, ColoringSweepDeterministicAndAllocFree) {
  const auto run_sweep = [](std::size_t threads) {
    common::SweepEngine engine(threads);
    return engine.run(3, 11, [](const common::TrialContext& ctx) {
      const auto g =
          dense_graph(96, 10.0, common::derive_seed(ctx.seed, 0x67));
      core::MwRunConfig cfg;
      cfg.seed = ctx.seed;
      const auto r = core::run_mw_coloring(g, cfg);
      EXPECT_TRUE(r.coloring_valid);
      if (common::alloc_counting_enabled()) {
        EXPECT_TRUE(r.metrics.steady_state_alloc_free())
            << "slot loop allocated in steady state: "
            << r.metrics.slot_heap_allocs << " allocs, last in slot "
            << r.metrics.last_alloc_slot << " of " << r.metrics.slots_executed;
      }
      return r.summary();
    });
  };
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sinrcolor
