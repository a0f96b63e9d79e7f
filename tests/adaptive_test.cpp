// Tests for the adaptive-Δ protocol variant (Section-VI open question).
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/adaptive.h"
#include "geometry/deployment.h"
#include "graph/independent_set.h"

namespace sinrcolor::core {
namespace {

graph::UnitDiskGraph uniform_graph(std::size_t n, double side,
                                   std::uint64_t seed) {
  common::Rng rng(seed);
  return {geometry::uniform_deployment(n, side, rng), 1.0};
}

TEST(AdaptiveNode, StartsFromInitialEstimate) {
  const sinr::SinrParams phys = sinr::SinrParams{}.with_r_t(1.0);
  AdaptiveMwNode node(0, 64, phys, PracticalTuning{}, 2);
  EXPECT_EQ(node.delta_estimate(), 2u);
  EXPECT_EQ(node.restarts(), 0u);
  EXPECT_FALSE(node.decided());
  EXPECT_EQ(node.distinct_neighbors_heard(), 0u);
}

TEST(AdaptiveNode, DoublesWhenEvidenceExceedsEstimate) {
  const sinr::SinrParams phys = sinr::SinrParams{}.with_r_t(1.0);
  AdaptiveMwNode node(0, 64, phys, PracticalTuning{}, 2);
  node.on_wake(0);

  radio::Message m;
  m.kind = radio::MessageKind::kCompete;
  m.color_class = 0;
  for (graph::NodeId w = 1; w <= 2; ++w) {
    m.sender = w;
    node.on_receive(0, m);
  }
  EXPECT_EQ(node.restarts(), 0u);  // 2 heard, estimate 2: no evidence yet
  m.sender = 3;
  node.on_receive(1, m);  // third distinct neighbor > estimate 2
  EXPECT_EQ(node.restarts(), 1u);
  EXPECT_EQ(node.delta_estimate(), 6u);  // 2 × heard
  EXPECT_EQ(node.state(), MwStateKind::kListening);  // restarted into A_0
}

TEST(AdaptiveNode, DuplicateSendersAreNotEvidence) {
  const sinr::SinrParams phys = sinr::SinrParams{}.with_r_t(1.0);
  AdaptiveMwNode node(0, 64, phys, PracticalTuning{}, 2);
  node.on_wake(0);
  radio::Message m;
  m.kind = radio::MessageKind::kCompete;
  m.color_class = 0;
  m.sender = 7;
  for (int k = 0; k < 10; ++k) node.on_receive(k, m);
  EXPECT_EQ(node.distinct_neighbors_heard(), 1u);
  EXPECT_EQ(node.restarts(), 0u);
}

TEST(AdaptiveRun, SingleNodeTerminatesAsLeader) {
  graph::UnitDiskGraph g(geometry::line_deployment(1, 1.0), 1.0);
  const auto result = run_adaptive_coloring(g);
  EXPECT_TRUE(result.metrics.all_decided);
  EXPECT_TRUE(result.coloring_valid);
  EXPECT_EQ(result.total_restarts, 0u);  // hears nobody, never doubles
}

class AdaptiveSweep : public ::testing::TestWithParam<
                          std::tuple<std::size_t, double, std::uint64_t>> {};

TEST_P(AdaptiveSweep, ValidColoringWithoutDeltaKnowledge) {
  const auto [n, side, seed] = GetParam();
  const auto g = uniform_graph(n, side, seed);
  AdaptiveRunConfig cfg;
  cfg.seed = seed * 13 + 1;
  const auto result = run_adaptive_coloring(g, cfg);
  EXPECT_TRUE(result.metrics.all_decided) << result.summary();
  EXPECT_TRUE(result.coloring_valid) << result.summary();
  EXPECT_EQ(result.independence_violations, 0u) << result.summary();
  // The estimates must have grown past the initial 2 on non-trivial graphs.
  if (g.max_degree() > 4) {
    EXPECT_GT(result.mean_final_delta, 2.0);
    EXPECT_GT(result.total_restarts, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptiveSweep,
    ::testing::Values(std::make_tuple(30, 2.5, 1ULL),
                      std::make_tuple(80, 3.5, 2ULL),
                      std::make_tuple(120, 4.0, 3ULL),
                      std::make_tuple(120, 3.0, 4ULL)));

TEST(AdaptiveRun, AsyncWakeupStillValid) {
  const auto g = uniform_graph(70, 3.0, 17);
  AdaptiveRunConfig cfg;
  cfg.seed = 23;
  cfg.wakeup = WakeupKind::kUniform;
  cfg.wakeup_window = 3000;
  const auto result = run_adaptive_coloring(g, cfg);
  EXPECT_TRUE(result.metrics.all_decided) << result.summary();
  EXPECT_TRUE(result.coloring_valid) << result.summary();
}

TEST(AdaptiveRun, DeterministicGivenSeed) {
  const auto g = uniform_graph(60, 3.0, 18);
  AdaptiveRunConfig cfg;
  cfg.seed = 29;
  const auto a = run_adaptive_coloring(g, cfg);
  const auto b = run_adaptive_coloring(g, cfg);
  EXPECT_EQ(a.coloring.color, b.coloring.color);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.metrics.slots_executed, b.metrics.slots_executed);
}

}  // namespace
}  // namespace sinrcolor::core
