#include <gtest/gtest.h>

#include <cmath>

#include "baseline/aloha.h"
#include "baseline/greedy_coloring.h"
#include "baseline/mw_graph_model.h"
#include "common/rng.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"

namespace sinrcolor::baseline {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

graph::UnitDiskGraph uniform_graph(std::size_t n, double side,
                                   std::uint64_t seed) {
  common::Rng rng(seed);
  return {geometry::uniform_deployment(n, side, rng), 1.0};
}

TEST(GreedyColoring, ValidWithDeltaPlusOnePalette) {
  const auto g = uniform_graph(250, 5.0, 70);
  const auto c = greedy_coloring(g);
  EXPECT_TRUE(graph::is_valid_coloring(g, c));
  EXPECT_LE(c.palette_size(), g.max_degree() + 1);
}

TEST(GreedyColoring, DistanceDValidAtThatDistance) {
  const auto g = uniform_graph(180, 5.0, 71);
  for (double d : {1.5, 2.0, 3.0}) {
    const auto c = greedy_distance_d_coloring(g, d);
    EXPECT_TRUE(graph::is_valid_coloring(g, c, d)) << "d=" << d;
    // And the palette is bounded by Δ_{G^d}+1.
    EXPECT_LE(c.palette_size(), g.scaled(d).max_degree() + 1);
  }
}

TEST(GreedyColoring, DistanceDReducesToDistance1) {
  const auto g = uniform_graph(100, 4.0, 72);
  const auto direct = greedy_coloring(g);
  const auto via_d = greedy_distance_d_coloring(g, 1.0);
  EXPECT_EQ(direct.color, via_d.color);
}

TEST(MwGraphModel, OriginalAlgorithmWorksInItsModel) {
  const auto g = uniform_graph(80, 3.5, 73);
  const auto result = run_mw_graph_model(g, 7);
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(result.coloring_valid) << result.summary();
  EXPECT_EQ(result.independence_violations, 0u);
}

TEST(MwGraphModel, GraphTuningIsFasterThanSinrTuning) {
  const auto g = uniform_graph(80, 3.5, 74);
  const auto fast = run_mw_graph_model(g, 8);
  core::MwRunConfig sinr_cfg;
  sinr_cfg.seed = 8;
  const auto careful = core::run_mw_coloring(g, sinr_cfg);
  ASSERT_TRUE(fast.metrics.all_decided);
  ASSERT_TRUE(careful.metrics.all_decided);
  EXPECT_LT(fast.metrics.slots_executed, careful.metrics.slots_executed);
}

TEST(MwGraphModel, GraphTuningUnderSinrRuns) {
  // The negative baseline must execute to completion (the interesting part —
  // how often it violates independence — is measured by bench X9).
  const auto g = uniform_graph(60, 3.0, 75);
  const auto result = run_mw_graph_tuning_under_sinr(g, 9);
  EXPECT_TRUE(result.metrics.all_decided);
}

TEST(Aloha, CompletesOnSmallGraph) {
  const auto g = uniform_graph(50, 4.0, 76);
  const auto result = run_aloha_local_broadcast(g, phys_for_radius(1.0), 0.05,
                                                200000, 11);
  EXPECT_TRUE(result.completed) << result.summary();
  EXPECT_EQ(result.pairs_served, result.pairs_total);
  EXPECT_GT(result.transmissions, 0u);
  EXPECT_LE(result.slots_p50, result.slots_p95);
  EXPECT_LE(result.slots_p95, result.slots);
}

TEST(Aloha, IsolatedNodesFinishInstantly) {
  graph::UnitDiskGraph g(geometry::line_deployment(5, 2.0), 1.0);
  const auto result = run_aloha_local_broadcast(g, phys_for_radius(1.0), 0.1,
                                                1000, 12);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.pairs_total, 0u);
  EXPECT_EQ(result.slots, 0);
}

TEST(Aloha, DeterministicGivenSeed) {
  const auto g = uniform_graph(40, 3.0, 77);
  const auto phys = phys_for_radius(1.0);
  const auto a = run_aloha_local_broadcast(g, phys, 0.05, 100000, 13);
  const auto b = run_aloha_local_broadcast(g, phys, 0.05, 100000, 13);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

}  // namespace
}  // namespace sinrcolor::baseline
