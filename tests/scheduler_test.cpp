// Tests for the greedy SINR link scheduler and the schedule-free local
// broadcast baselines (ALOHA with 1/Δ scaling, idealized CSMA).
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/local_broadcast.h"
#include "common/rng.h"
#include "geometry/deployment.h"
#include "mac/link_scheduler.h"

namespace sinrcolor::mac {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

graph::UnitDiskGraph uniform_graph(std::size_t n, double side,
                                   std::uint64_t seed) {
  common::Rng rng(seed);
  return {geometry::uniform_deployment(n, side, rng), 1.0};
}

TEST(LinkScheduler, AllNeighborLinksEnumeratesBothDirections) {
  graph::UnitDiskGraph g(geometry::line_deployment(3, 0.9), 1.0);
  const auto requests = all_neighbor_links(g);
  EXPECT_EQ(requests.size(), 4u);  // 0→1, 1→0, 1→2, 2→1
}

TEST(LinkScheduler, SingleLinkFitsOneSlot) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = greedy_link_schedule(g, phys, {{0, 1}});
  EXPECT_EQ(schedule.slots, 1u);
  EXPECT_EQ(count_infeasible_links(g, phys, {{0, 1}}, schedule), 0u);
}

TEST(LinkScheduler, OppositeDirectionsNeverShareASlot) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 0.5), 1.0);
  const auto phys = phys_for_radius(1.0);
  const std::vector<LinkRequest> requests{{0, 1}, {1, 0}};
  const auto schedule = greedy_link_schedule(g, phys, requests);
  EXPECT_EQ(schedule.slots, 2u);  // half-duplex
  EXPECT_NE(schedule.slot_of[0], schedule.slot_of[1]);
}

TEST(LinkScheduler, FarApartLinksShareASlot) {
  // Two links 40 R_T apart: mutual interference is negligible.
  geometry::Deployment dep;
  dep.side = 50.0;
  dep.points = {{0, 0}, {0.5, 0}, {40, 0}, {40.5, 0}};
  graph::UnitDiskGraph g(dep, 1.0);
  const auto phys = phys_for_radius(1.0);
  const std::vector<LinkRequest> requests{{0, 1}, {2, 3}};
  const auto schedule = greedy_link_schedule(g, phys, requests);
  EXPECT_EQ(schedule.slots, 1u);
  EXPECT_EQ(count_infeasible_links(g, phys, requests, schedule), 0u);
}

TEST(LinkScheduler, AdjacentLinksAreSeparated) {
  // Links 0→1 and 2→3 packed tightly: transmitter 2 sits 0.6 from receiver 1
  // — SINR at 1 fails if both transmit, so the greedy must split them.
  geometry::Deployment dep;
  dep.side = 5.0;
  dep.points = {{0.0, 0}, {0.9, 0}, {1.5, 0}, {2.4, 0}};
  graph::UnitDiskGraph g(dep, 1.0);
  const auto phys = phys_for_radius(1.0);
  const std::vector<LinkRequest> requests{{0, 1}, {2, 3}};
  const auto schedule = greedy_link_schedule(g, phys, requests);
  EXPECT_EQ(schedule.slots, 2u);
  EXPECT_EQ(count_infeasible_links(g, phys, requests, schedule), 0u);
}

class LinkSchedulerRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LinkSchedulerRandomTest, GreedyScheduleAlwaysFeasible) {
  const auto g = uniform_graph(100, 4.0, GetParam());
  const auto phys = phys_for_radius(1.0);
  const auto requests = all_neighbor_links(g);
  const auto schedule = greedy_link_schedule(g, phys, requests);
  EXPECT_GT(schedule.slots, 0u);
  EXPECT_EQ(count_infeasible_links(g, phys, requests, schedule), 0u);
  // Trivial upper bound: one slot per request.
  EXPECT_LE(schedule.slots, requests.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkSchedulerRandomTest,
                         ::testing::Values(101, 102, 103));

TEST(LinkScheduler, RejectsOutOfRangeRequest) {
  graph::UnitDiskGraph g(geometry::line_deployment(2, 3.0), 1.0);  // no edge
  const auto phys = phys_for_radius(1.0);
  EXPECT_DEATH((void)greedy_link_schedule(g, phys, {{0, 1}}), "beyond R_T");
}

TEST(LocalBroadcast, KnownDeltaCompletesWithinBudget) {
  const auto g = uniform_graph(120, 4.0, 104);
  const auto phys = phys_for_radius(1.0);
  const auto result = baseline::run_local_broadcast_known_delta(
      g, phys, 0.3, 3.0, 11);
  EXPECT_TRUE(result.completed) << result.summary();
}

TEST(Csma, CompletesAndBeatsComparableAlohaOnDenseGraphs) {
  const auto g = uniform_graph(150, 3.5, 105);
  const auto phys = phys_for_radius(1.0);
  const auto csma =
      baseline::run_csma_local_broadcast(g, phys, 0.25, 4.0, 400000, 12);
  EXPECT_TRUE(csma.completed) << csma.summary();
  // Same nominal attempt probability without sensing collapses or crawls:
  // carrier sensing must serve pairs at a faster per-slot rate.
  const auto aloha =
      baseline::run_aloha_local_broadcast(g, phys, 0.25, csma.slots, 12);
  EXPECT_GT(csma.pairs_served, aloha.pairs_served) << aloha.summary();
}

TEST(Csma, DeterministicGivenSeed) {
  const auto g = uniform_graph(60, 3.0, 106);
  const auto phys = phys_for_radius(1.0);
  const auto a =
      baseline::run_csma_local_broadcast(g, phys, 0.2, 4.0, 100000, 13);
  const auto b =
      baseline::run_csma_local_broadcast(g, phys, 0.2, 4.0, 100000, 13);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

}  // namespace
}  // namespace sinrcolor::mac
