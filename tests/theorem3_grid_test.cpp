// Property sweep for Theorem 3 across the physical-parameter space:
// d = (32·(α−1)/(α−2)·β)^{1/α} depends on α and β, and nothing about the
// claim is specific to R_T = 1. For every (α, β, R_T) combination the
// distance-(d+1) greedy coloring must schedule an interference-free TDMA
// frame, and the whole pipeline must be scale-invariant.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baseline/greedy_coloring.h"
#include "common/rng.h"
#include "geometry/deployment.h"
#include "core/mw_protocol.h"
#include "mac/tdma.h"

namespace sinrcolor::mac {
namespace {

sinr::SinrParams phys_for(double alpha, double beta, double r_t) {
  sinr::SinrParams p;
  p.alpha = alpha;
  p.beta = beta;
  return p.with_r_t(r_t);
}

class Theorem3GridTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(Theorem3GridTest, DistanceDPlusOneIsInterferenceFree) {
  const auto [alpha, beta, r_t] = GetParam();
  const auto phys = phys_for(alpha, beta, r_t);
  ASSERT_NEAR(phys.r_t(), r_t, 1e-9 * r_t);
  const double d = phys.mac_distance_d();
  EXPECT_GT(d, 1.0);

  common::Rng rng(777);
  // Scale the world with R_T so the topology is identical up to scale.
  graph::UnitDiskGraph g(
      geometry::uniform_deployment(160, 4.0 * r_t, rng), r_t);
  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  ASSERT_TRUE(graph::is_valid_coloring(g, coloring, d + 1.0));
  const auto schedule = TdmaSchedule::from_coloring(coloring);
  const auto audit = audit_tdma_sinr(g, phys, schedule);
  EXPECT_TRUE(audit.interference_free())
      << "alpha=" << alpha << " beta=" << beta << " r_t=" << r_t << " — "
      << audit.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Theorem3GridTest,
    ::testing::Combine(::testing::Values(3.0, 4.0, 6.0),   // α
                       ::testing::Values(1.0, 1.5, 3.0),   // β
                       ::testing::Values(1.0, 2.5)));      // R_T

TEST(Theorem3Scale, DGrowsWithBetaAndShrinksWithAlpha) {
  const double d_base = phys_for(4.0, 1.5, 1.0).mac_distance_d();
  EXPECT_GT(phys_for(4.0, 3.0, 1.0).mac_distance_d(), d_base);  // more SINR margin
  EXPECT_LT(phys_for(6.0, 1.5, 1.0).mac_distance_d(), d_base);  // faster decay
}

TEST(Theorem3Scale, PipelineIsScaleInvariant) {
  // The same deployment scaled by 10 with R_T scaled by 10 must produce the
  // identical coloring, schedule and audit outcome.
  common::Rng rng1(888), rng2(888);
  const auto small = geometry::uniform_deployment(120, 4.0, rng1);
  auto large = geometry::uniform_deployment(120, 4.0, rng2);
  for (auto& p : large.points) p = p * 10.0;
  large.side *= 10.0;

  graph::UnitDiskGraph g1(small, 1.0);
  graph::UnitDiskGraph g2(std::move(large), 10.0);
  ASSERT_EQ(g1.edge_count(), g2.edge_count());

  const auto phys1 = phys_for(4.0, 1.5, 1.0);
  const auto phys2 = phys_for(4.0, 1.5, 10.0);
  const double d = phys1.mac_distance_d();
  ASSERT_DOUBLE_EQ(d, phys2.mac_distance_d());  // d is scale-free

  const auto c1 = baseline::greedy_distance_d_coloring(g1, d + 1.0);
  const auto c2 = baseline::greedy_distance_d_coloring(g2, d + 1.0);
  EXPECT_EQ(c1.color, c2.color);

  const auto a1 = audit_tdma_sinr(g1, phys1, TdmaSchedule::from_coloring(c1));
  const auto a2 = audit_tdma_sinr(g2, phys2, TdmaSchedule::from_coloring(c2));
  EXPECT_EQ(a1.pairs_delivered, a2.pairs_delivered);
  EXPECT_EQ(a1.pairs_total, a2.pairs_total);
  EXPECT_TRUE(a1.interference_free());
  EXPECT_TRUE(a2.interference_free());
}

TEST(Theorem3Scale, ProtocolRunsAtNonUnitRadius) {
  // End-to-end coloring with R_T = 2.5 (catches hidden unit assumptions).
  common::Rng rng(999);
  graph::UnitDiskGraph g(geometry::uniform_deployment(80, 9.0, rng), 2.5);
  core::MwRunConfig cfg;
  cfg.seed = 21;
  const auto result = core::run_mw_coloring(g, cfg);
  EXPECT_TRUE(result.metrics.all_decided) << result.summary();
  EXPECT_TRUE(result.coloring_valid) << result.summary();
  EXPECT_EQ(result.independence_violations, 0u);
}

}  // namespace
}  // namespace sinrcolor::mac
