#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "geometry/deployment.h"
#include "graph/coloring.h"
#include "graph/graph_algos.h"
#include "graph/independent_set.h"
#include "graph/packing.h"
#include "graph/unit_disk_graph.h"

namespace sinrcolor::graph {
namespace {

geometry::Deployment square_cluster() {
  // Four points: three mutually close, one far away.
  geometry::Deployment d;
  d.side = 10.0;
  d.points = {{0.0, 0.0}, {0.5, 0.0}, {0.0, 0.8}, {5.0, 5.0}};
  return d;
}

TEST(UnitDiskGraph, EdgesMatchPairwiseDistances) {
  UnitDiskGraph g(square_cluster(), 1.0);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(0, 2));
  EXPECT_TRUE(g.adjacent(1, 2));  // distance sqrt(0.25+0.64) < 1
  EXPECT_FALSE(g.adjacent(0, 3));
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.edge_count(), 3u);
}

class UdgRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UdgRandomTest, MatchesBruteForceAdjacency) {
  common::Rng rng(GetParam());
  const auto dep = geometry::uniform_deployment(150, 6.0, rng);
  UnitDiskGraph g(dep, 1.0);
  for (NodeId v = 0; v < g.size(); ++v) {
    std::vector<NodeId> expected;
    for (NodeId u = 0; u < g.size(); ++u) {
      if (u != v && geometry::distance(dep.points[u], dep.points[v]) <= 1.0) {
        expected.push_back(u);
      }
    }
    const auto nbrs = g.neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdgRandomTest, ::testing::Values(11, 12, 13, 14));

TEST(UnitDiskGraph, AdjacencyIsSymmetric) {
  common::Rng rng(21);
  UnitDiskGraph g(geometry::uniform_deployment(120, 5.0, rng), 1.0);
  for (NodeId v = 0; v < g.size(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      EXPECT_TRUE(g.adjacent(u, v));
    }
  }
}

TEST(UnitDiskGraph, ScaledGraphGrowsMonotonically) {
  common::Rng rng(22);
  UnitDiskGraph g(geometry::uniform_deployment(100, 5.0, rng), 1.0);
  const auto g2 = g.scaled(2.0);
  EXPECT_DOUBLE_EQ(g2.radius(), 2.0);
  EXPECT_GE(g2.edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.size(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      EXPECT_TRUE(g2.adjacent(u, v));  // edges survive scaling up
    }
  }
}

TEST(UnitDiskGraph, NodesWithinRadius) {
  UnitDiskGraph g(square_cluster(), 1.0);
  const auto near0 = g.nodes_within(0, 0.6);
  EXPECT_EQ(near0, std::vector<NodeId>{1});
  const auto all = g.nodes_within(0, 10.0);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Coloring, ValidatorAcceptsProperColoring) {
  UnitDiskGraph g(square_cluster(), 1.0);
  Coloring c{{0, 1, 2, 0}};
  EXPECT_TRUE(is_valid_coloring(g, c));
  EXPECT_TRUE(c.complete());
  EXPECT_EQ(c.palette_size(), 3u);
  EXPECT_EQ(c.max_color(), 2);
}

TEST(Coloring, ValidatorRejectsAdjacentDuplicates) {
  UnitDiskGraph g(square_cluster(), 1.0);
  Coloring c{{0, 0, 1, 2}};
  const auto violations = find_coloring_violations(g, c);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].u, 0u);
  EXPECT_EQ(violations[0].v, 1u);
  EXPECT_EQ(violations[0].color, 0);
  EXPECT_FALSE(is_valid_coloring(g, c));
}

TEST(Coloring, ValidatorFlagsUncoloredNodes) {
  UnitDiskGraph g(square_cluster(), 1.0);
  Coloring c{{0, 1, kUncolored, 2}};
  const auto violations = find_coloring_violations(g, c);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].u, violations[0].v);
  EXPECT_FALSE(c.complete());
}

TEST(Coloring, DistanceDValidation) {
  // Two nodes 1.5 apart: fine at d=1, conflicting at d=2 if same color.
  geometry::Deployment dep;
  dep.side = 4.0;
  dep.points = {{0.0, 0.0}, {1.5, 0.0}};
  UnitDiskGraph g(dep, 1.0);
  Coloring same{{3, 3}};
  EXPECT_TRUE(is_valid_coloring(g, same, 1.0));
  EXPECT_FALSE(is_valid_coloring(g, same, 2.0));
  Coloring diff{{3, 4}};
  EXPECT_TRUE(is_valid_coloring(g, diff, 2.0));
}

TEST(Coloring, PaletteSizeIgnoresUncolored) {
  Coloring c{{0, 2, 0, 2, 2, kUncolored}};
  EXPECT_EQ(c.palette_size(), 2u);
}

TEST(IndependentSet, DetectsViolations) {
  UnitDiskGraph g(square_cluster(), 1.0);
  EXPECT_TRUE(is_independent_set(g, {0, 3}));
  EXPECT_FALSE(is_independent_set(g, {0, 1}));
  const auto violation = find_independence_violation(g, {0, 1, 3});
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->first, 0u);
  EXPECT_EQ(violation->second, 1u);
}

TEST(IndependentSet, GreedyMisIsMaximal) {
  common::Rng rng(33);
  UnitDiskGraph g(geometry::uniform_deployment(200, 6.0, rng), 1.0);
  const auto mis = greedy_mis(g);
  EXPECT_TRUE(is_independent_set(g, mis));
  EXPECT_TRUE(is_maximal_independent_set(g, mis));
}

TEST(IndependentSet, MaximalityRejectsNonMaximal) {
  UnitDiskGraph g(square_cluster(), 1.0);
  EXPECT_FALSE(is_maximal_independent_set(g, {0}));  // node 3 uncovered
  EXPECT_TRUE(is_maximal_independent_set(g, {0, 3}));
}

TEST(Packing, AnalyticBoundFormula) {
  EXPECT_DOUBLE_EQ(phi_upper_bound(1.0, 1.0), 9.0);    // (2+1)^2
  EXPECT_DOUBLE_EQ(phi_upper_bound(2.0, 1.0), 25.0);   // (4+1)^2
  EXPECT_DOUBLE_EQ(phi_upper_bound(0.0, 1.0), 1.0);
}

TEST(Packing, EmpiricalNeverExceedsAnalytic) {
  common::Rng rng(34);
  UnitDiskGraph g(geometry::uniform_deployment(300, 6.0, rng), 1.0);
  for (double R : {1.0, 2.0, 3.0}) {
    const auto empirical = static_cast<double>(empirical_phi(g, R));
    EXPECT_LE(empirical, phi_upper_bound(R, 1.0));
    EXPECT_GE(empirical, 1.0);
  }
}

TEST(Packing, LineGraphPhi2RT) {
  // Chain with spacing 1.01 (no edges): every node alone in its disc except
  // packing counts nodes within 2R_T: at spacing 1.01, discs of radius 2
  // contain 3 consecutive independent nodes.
  UnitDiskGraph g(geometry::line_deployment(20, 1.01), 1.0);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_EQ(empirical_phi_2rt(g), 3u);
}

TEST(GraphAlgos, BfsDistancesOnChain) {
  UnitDiskGraph g(geometry::line_deployment(6, 0.9), 1.0);
  const auto dist = bfs_distances(g, 0);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(dist[v], v);
  EXPECT_EQ(hop_diameter(g), 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GraphAlgos, BfsParentsCanonical) {
  UnitDiskGraph g(geometry::line_deployment(5, 0.9), 1.0);
  const auto parent = bfs_parents(g, 0);
  EXPECT_EQ(parent[0], 0u);
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(parent[v], v - 1);
}

TEST(GraphAlgos, ComponentsAndUnreachable) {
  geometry::Deployment dep;
  dep.side = 10.0;
  dep.points = {{0, 0}, {0.5, 0}, {5, 5}, {5.5, 5}};
  UnitDiskGraph g(dep, 1.0);
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_FALSE(is_connected(g));
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

}  // namespace
}  // namespace sinrcolor::graph
