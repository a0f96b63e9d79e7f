#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/mw_node.h"
#include "core/mw_protocol.h"
#include "core/verify.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"
#include "graph/independent_set.h"

namespace sinrcolor::core {
namespace {

graph::UnitDiskGraph uniform_graph(std::size_t n, double side,
                                   std::uint64_t seed) {
  common::Rng rng(seed);
  return {geometry::uniform_deployment(n, side, rng), 1.0};
}

MwRunConfig quick_config(std::uint64_t seed) {
  MwRunConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(MwProtocol, SingleIsolatedNodeBecomesLeader) {
  graph::UnitDiskGraph g(geometry::line_deployment(1, 1.0), 1.0);
  const auto result = run_mw_coloring(g, quick_config(1));
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_EQ(result.leaders.size(), 1u);
  EXPECT_EQ(result.coloring.color[0], 0);
  EXPECT_TRUE(result.coloring_valid);
}

TEST(MwProtocol, DisconnectedNodesAllBecomeLeaders) {
  graph::UnitDiskGraph g(geometry::line_deployment(5, 3.0), 1.0);
  const auto result = run_mw_coloring(g, quick_config(2));
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_EQ(result.leaders.size(), 5u);
  EXPECT_TRUE(result.coloring_valid);
}

TEST(MwProtocol, AdjacentPairSplitsLeaderAndColored) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  const auto result = run_mw_coloring(g, quick_config(3));
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_EQ(result.leaders.size(), 1u);
  EXPECT_TRUE(result.coloring_valid);
  EXPECT_EQ(result.independence_violations, 0u);
  EXPECT_NE(result.coloring.color[0], result.coloring.color[1]);
}

TEST(MwProtocol, CliqueGetsAllDistinctColors) {
  // 6 nodes within one disc: pairwise adjacent ⇒ 6 distinct colors.
  geometry::Deployment dep;
  dep.side = 2.0;
  for (int i = 0; i < 6; ++i) {
    dep.points.push_back({0.5 + 0.05 * i, 0.5});
  }
  graph::UnitDiskGraph g(dep, 1.0);
  const auto result = run_mw_coloring(g, quick_config(4));
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(result.coloring_valid);
  EXPECT_EQ(result.palette, 6u);
  EXPECT_EQ(result.leaders.size(), 1u);
}

TEST(MwProtocol, DeterministicGivenSeed) {
  const auto g = uniform_graph(60, 2.5, 77);
  const auto a = run_mw_coloring(g, quick_config(5));
  const auto b = run_mw_coloring(g, quick_config(5));
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.metrics.slots_executed, b.metrics.slots_executed);
  EXPECT_EQ(a.metrics.total_transmissions, b.metrics.total_transmissions);
  const auto c = run_mw_coloring(g, quick_config(6));
  EXPECT_NE(a.metrics.total_transmissions, c.metrics.total_transmissions);
}

// Theorem 2 end-to-end over (n, side, seed, wakeup) sweeps: complete valid
// (1, ·)-coloring, zero Theorem-1 violations, palette within the bound.
class MwProtocolSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, double, std::uint64_t, WakeupKind>> {};

TEST_P(MwProtocolSweep, ProducesValidColoring) {
  const auto [n, side, seed, wakeup] = GetParam();
  const auto g = uniform_graph(n, side, seed);
  MwRunConfig cfg = quick_config(seed * 31 + 7);
  cfg.wakeup = wakeup;
  cfg.wakeup_window = wakeup == WakeupKind::kStaggered
                          ? 40
                          : static_cast<radio::Slot>(n) * 10;

  MwInstance instance(g, cfg);
  const auto result = instance.run();

  EXPECT_TRUE(result.metrics.all_decided) << result.summary();
  EXPECT_TRUE(result.coloring_valid) << result.summary();
  EXPECT_EQ(result.independence_violations, 0u) << result.summary();
  EXPECT_EQ(clustering_violations(g, instance.nodes()), 0u);
  EXPECT_EQ(snapshot_independence_violations(g, instance.nodes()), 0u);

  // Leaders form a maximal independent set (every node joined some cluster).
  EXPECT_TRUE(graph::is_independent_set(g, result.leaders));

  // Theorem 2 palette shape: max color ≤ (φ(2R_T)+1)·(Δ+slack). The practical
  // profile can overshoot the exact bound via re-served requests; a 2x guard
  // still catches palette explosions.
  EXPECT_LE(result.max_color, 2 * result.params.palette_bound())
      << result.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MwProtocolSweep,
    ::testing::Values(
        std::make_tuple(24, 2.0, 1ULL, WakeupKind::kSimultaneous),
        std::make_tuple(24, 2.0, 2ULL, WakeupKind::kUniform),
        std::make_tuple(60, 3.0, 3ULL, WakeupKind::kSimultaneous),
        std::make_tuple(60, 3.0, 4ULL, WakeupKind::kUniform),
        std::make_tuple(60, 6.0, 5ULL, WakeupKind::kStaggered),
        std::make_tuple(120, 4.0, 6ULL, WakeupKind::kSimultaneous),
        std::make_tuple(120, 4.0, 7ULL, WakeupKind::kUniform),
        std::make_tuple(150, 3.0, 8ULL, WakeupKind::kUniform),
        std::make_tuple(250, 5.0, 9ULL, WakeupKind::kSimultaneous),
        std::make_tuple(250, 5.0, 10ULL, WakeupKind::kUniform),
        std::make_tuple(400, 6.5, 11ULL, WakeupKind::kSimultaneous)));

TEST(MwProtocol, ClusteredDeploymentStillValid) {
  common::Rng rng(91);
  graph::UnitDiskGraph g(
      geometry::clustered_deployment(90, 6.0, 4, 0.8, rng), 1.0);
  const auto result = run_mw_coloring(g, quick_config(12));
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(result.coloring_valid) << result.summary();
  EXPECT_EQ(result.independence_violations, 0u);
}

TEST(MwProtocol, ChainTopologyValid) {
  graph::UnitDiskGraph g(geometry::line_deployment(40, 0.6), 1.0);
  const auto result = run_mw_coloring(g, quick_config(13));
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(result.coloring_valid) << result.summary();
}

TEST(MwProtocol, GraphModelBaselineAlsoColors) {
  const auto g = uniform_graph(60, 3.0, 21);
  MwRunConfig cfg = quick_config(14);
  cfg.graph_model = true;
  const auto result = run_mw_coloring(g, cfg);
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(result.coloring_valid) << result.summary();
}

TEST(MwProtocol, TimeWithinRecommendedHorizon) {
  const auto g = uniform_graph(80, 3.5, 31);
  MwInstance instance(g, quick_config(15));
  const auto horizon = instance.params().recommended_max_slots();
  const auto result = instance.run();
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_LT(result.metrics.slots_executed, horizon);
}

TEST(MwNode, StateNamesAreStable) {
  EXPECT_STREQ(to_string(MwStateKind::kAsleep), "asleep");
  EXPECT_STREQ(to_string(MwStateKind::kLeader), "leader");
  EXPECT_STREQ(to_string(MwStateKind::kColored), "colored");
}

TEST(MwNode, TxProbabilityByState) {
  MwConfig cfg;
  cfg.n = 16;
  cfg.max_degree = 4;
  cfg.phys = cfg.phys.with_r_t(1.0);  // R_T = 1
  const auto params = MwParams::practical(cfg);
  MwNode node(0, params);
  EXPECT_EQ(node.tx_probability(), 0.0);  // asleep
  node.on_wake(0);
  EXPECT_EQ(node.tx_probability(), 0.0);  // listening
  EXPECT_EQ(node.state(), MwStateKind::kListening);
  EXPECT_EQ(node.final_color(), graph::kUncolored);
  EXPECT_FALSE(node.decided());
}

TEST(MwNode, LoneNodeWalksThroughPhases) {
  MwConfig cfg;
  cfg.n = 4;
  cfg.max_degree = 1;
  cfg.phys = cfg.phys.with_r_t(1.0);
  const auto params = MwParams::practical(cfg);
  MwNode node(0, params);
  common::Rng rng(5);
  node.on_wake(0);
  radio::Slot slot = 0;
  // Listening phase: exactly listen_slots silent slots.
  for (radio::Slot i = 0; i < params.listen_slots; ++i) {
    EXPECT_EQ(node.state(), MwStateKind::kListening);
    (void)node.begin_slot(slot++, rng);
  }
  // Competition with no competitors: counter climbs 1, 2, ... to threshold.
  while (!node.decided()) {
    (void)node.begin_slot(slot++, rng);
    ASSERT_LE(slot, params.listen_slots + params.counter_threshold + 2);
  }
  EXPECT_EQ(node.state(), MwStateKind::kLeader);
  EXPECT_EQ(node.final_color(), 0);
}

}  // namespace
}  // namespace sinrcolor::core
