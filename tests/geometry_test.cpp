#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "geometry/deployment.h"
#include "geometry/grid_index.h"
#include "geometry/point.h"

namespace sinrcolor::geometry {
namespace {

TEST(Point, DistanceAndWithin) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance_sq(a, b), 25.0);
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_TRUE(within(a, b, 5.0));   // boundary inclusive (δ ≤ R_T)
  EXPECT_FALSE(within(a, b, 4.999));
}

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{0.5, -1.0};
  EXPECT_EQ((a + b), (Point{1.5, 1.0}));
  EXPECT_EQ((a - b), (Point{0.5, 3.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
}

TEST(Deployment, UniformStaysInSquareAndIsDeterministic) {
  common::Rng r1(5), r2(5);
  const auto d1 = uniform_deployment(200, 10.0, r1);
  const auto d2 = uniform_deployment(200, 10.0, r2);
  ASSERT_EQ(d1.size(), 200u);
  EXPECT_EQ(d1.points, d2.points);
  for (const auto& p : d1.points) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 10.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 10.0);
  }
}

TEST(Deployment, ExactGridHasUniformSpacing) {
  common::Rng rng(5);
  const auto d = grid_deployment(16, 8.0, 0.0, rng);
  ASSERT_EQ(d.size(), 16u);
  // 4x4 grid with step 2: first two points are 2 apart.
  EXPECT_NEAR(distance(d.points[0], d.points[1]), 2.0, 1e-12);
  EXPECT_NEAR(d.points[0].x, 1.0, 1e-12);
}

TEST(Deployment, GridJitterStaysInSquare) {
  common::Rng rng(6);
  const auto d = grid_deployment(100, 10.0, 5.0, rng);
  for (const auto& p : d.points) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 10.0);
  }
}

TEST(Deployment, ClusteredProducesRequestedCount) {
  common::Rng rng(7);
  const auto d = clustered_deployment(300, 20.0, 5, 1.0, rng);
  EXPECT_EQ(d.size(), 300u);
}

TEST(Deployment, LineSpacing) {
  const auto d = line_deployment(10, 0.5);
  ASSERT_EQ(d.size(), 10u);
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_NEAR(distance(d.points[i - 1], d.points[i]), 0.5, 1e-12);
    EXPECT_DOUBLE_EQ(d.points[i].y, 0.0);
  }
}

class GridIndexRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridIndexRandomTest, MatchesBruteForce) {
  common::Rng rng(GetParam());
  const auto d = uniform_deployment(300, 10.0, rng);
  GridIndex index(d.points, d.side, 1.0);

  for (int q = 0; q < 30; ++q) {
    const Point query{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    const double r = rng.uniform(0.1, 4.0);
    auto got = index.within(query, r);
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < d.points.size(); ++i) {
      if (distance(query, d.points[i]) <= r) expected.push_back(i);
    }
    EXPECT_EQ(got, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridIndexRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(GridIndex, QueriesBeyondWorldBoundsAreSafe) {
  common::Rng rng(10);
  const auto d = uniform_deployment(50, 5.0, rng);
  GridIndex index(d.points, d.side, 1.0);
  // Query centered outside the square, radius covering everything.
  const auto all = index.within({-3.0, -3.0}, 100.0);
  EXPECT_EQ(all.size(), 50u);
  EXPECT_TRUE(index.within({20.0, 20.0}, 0.5).empty());
}

TEST(GridIndex, InsertAndCount) {
  GridIndex index(10.0, 1.0);
  EXPECT_EQ(index.size(), 0u);
  index.insert(0, {1.0, 1.0});
  index.insert(1, {9.0, 9.0});
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.within({1.0, 1.0}, 0.1), std::vector<std::size_t>{0});
}

TEST(GridIndex, BoundaryDistanceIsInclusive) {
  GridIndex index(10.0, 1.0);
  index.insert(0, {0.0, 0.0});
  index.insert(1, {2.0, 0.0});
  const auto hits = index.within({0.0, 0.0}, 2.0);
  EXPECT_EQ(hits.size(), 2u);  // exactly at distance r included
}

}  // namespace
}  // namespace sinrcolor::geometry
