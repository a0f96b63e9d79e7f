// Tests for the general (per-neighbor message) model of Corollary 1:
// reference executor, both SINR simulation strategies, and the two
// general-model algorithms (randomized matching, tree aggregation).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "baseline/greedy_coloring.h"
#include "common/rng.h"
#include "geometry/deployment.h"
#include "graph/graph_algos.h"
#include "mac/algorithms.h"
#include "mac/message_passing.h"
#include "mac/simulation.h"
#include "mac/tdma.h"

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

TdmaSchedule theorem3_schedule(const graph::UnitDiskGraph& g,
                               const sinr::SinrParams& phys) {
  const double d = phys.mac_distance_d();
  return TdmaSchedule::from_coloring(
      baseline::greedy_distance_d_coloring(g, d + 1.0));
}

// Verifies the matching encoded in the per-node algorithms: symmetric
// partners, edges of the graph, and maximality (no edge with two unmatched
// endpoints).
void expect_valid_maximal_matching(
    const graph::UnitDiskGraph& g,
    const std::vector<std::unique_ptr<GeneralAlgorithm>>& nodes) {
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto* algo = static_cast<const RandomizedMatching*>(nodes[v].get());
    if (algo->matched()) {
      const graph::NodeId u = algo->partner();
      ASSERT_LT(u, g.size());
      EXPECT_TRUE(g.adjacent(u, v)) << v << "-" << u;
      const auto* other = static_cast<const RandomizedMatching*>(nodes[u].get());
      EXPECT_EQ(other->partner(), v) << "asymmetric match " << v << "-" << u;
    } else {
      for (graph::NodeId u : g.neighbors(v)) {
        const auto* other =
            static_cast<const RandomizedMatching*>(nodes[u].get());
        EXPECT_TRUE(other->matched())
            << "edge " << v << "-" << u << " with both endpoints unmatched";
      }
    }
  }
}

TEST(GeneralReference, MatchingIsValidAndMaximal) {
  const auto g = uniform_graph(120, 4.0, 80);
  auto nodes = instantiate_general(g, [](graph::NodeId v, const auto& graph) {
    return std::make_unique<RandomizedMatching>(v, graph, 71);
  });
  const auto result = run_reference_general(g, nodes, 600);
  ASSERT_TRUE(result.all_terminated) << result.summary();
  expect_valid_maximal_matching(g, nodes);
}

TEST(GeneralReference, MatchingOnChainAndIsolated) {
  // Chain of 4 + disconnected node: matching must cover the chain maximally;
  // the isolated node terminates unmatched.
  geometry::Deployment dep;
  dep.side = 10.0;
  dep.points = {{0, 0}, {0.9, 0}, {1.8, 0}, {2.7, 0}, {8, 8}};
  graph::UnitDiskGraph g(dep, 1.0);
  auto nodes = instantiate_general(g, [](graph::NodeId v, const auto& graph) {
    return std::make_unique<RandomizedMatching>(v, graph, 5);
  });
  const auto result = run_reference_general(g, nodes, 600);
  ASSERT_TRUE(result.all_terminated);
  expect_valid_maximal_matching(g, nodes);
  EXPECT_FALSE(static_cast<RandomizedMatching*>(nodes[4].get())->matched());
}

TEST(GeneralReference, AggregationSumsWholeTree) {
  const auto g = uniform_graph(90, 3.0, 81);
  ASSERT_TRUE(graph::is_connected(g));
  const auto parents = graph::bfs_parents(g, 0);
  auto nodes = instantiate_general(g, [&](graph::NodeId v, const auto&) {
    return std::make_unique<TreeAggregation>(v, parents[v],
                                             static_cast<std::int64_t>(v));
  });
  const auto result = run_reference_general(g, nodes, 300);
  ASSERT_TRUE(result.all_terminated) << result.summary();
  const auto* root = static_cast<TreeAggregation*>(nodes[0].get());
  const auto n = static_cast<std::int64_t>(g.size());
  EXPECT_EQ(root->total(), n * (n - 1) / 2);
}

TEST(GeneralReference, AggregationIsolatedRoot) {
  graph::UnitDiskGraph g(geometry::line_deployment(1, 1.0), 1.0);
  auto nodes = instantiate_general(g, [](graph::NodeId v, const auto&) {
    return std::make_unique<TreeAggregation>(v, graph::kInvalidNode, 42);
  });
  const auto result = run_reference_general(g, nodes, 10);
  ASSERT_TRUE(result.all_terminated);
  EXPECT_EQ(static_cast<TreeAggregation*>(nodes[0].get())->total(), 42);
}

TEST(GeneralReference, RejectsMessageToNonNeighbor) {
  class Rogue final : public GeneralAlgorithm {
   public:
    std::vector<std::pair<graph::NodeId, Payload>> round_messages(
        std::uint32_t) override {
      return {{1, Payload{0}}};  // node 1 is not adjacent
    }
    void end_round(std::uint32_t, const Inbox&) override {}
    bool terminated() const override { return false; }
  };
  graph::UnitDiskGraph g(geometry::line_deployment(2, 5.0), 1.0);  // no edge
  std::vector<std::unique_ptr<GeneralAlgorithm>> nodes;
  nodes.push_back(std::make_unique<Rogue>());
  nodes.push_back(std::make_unique<Rogue>());
  EXPECT_DEATH((void)run_reference_general(g, nodes, 2), "non-neighbor");
}

class GeneralStrategyTest : public ::testing::TestWithParam<GeneralStrategy> {};

TEST_P(GeneralStrategyTest, MatchingIdenticalUnderSinr) {
  const auto g = uniform_graph(100, 3.5, 82);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = theorem3_schedule(g, phys);

  auto make = [](graph::NodeId v,
                 const auto& graph) -> std::unique_ptr<GeneralAlgorithm> {
    return std::make_unique<RandomizedMatching>(v, graph, 99);
  };
  auto ref_nodes = instantiate_general(g, make);
  auto sim_nodes = instantiate_general(g, make);
  const auto ref = run_reference_general(g, ref_nodes, 600);
  const auto sim =
      run_general_over_sinr_tdma(g, phys, schedule, sim_nodes, 600, GetParam());

  ASSERT_TRUE(ref.all_terminated);
  ASSERT_TRUE(sim.all_terminated) << sim.summary();
  EXPECT_EQ(sim.missed_deliveries, 0u) << sim.summary();
  EXPECT_EQ(ref.rounds, sim.rounds);
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    ASSERT_EQ(static_cast<RandomizedMatching*>(ref_nodes[v].get())->partner(),
              static_cast<RandomizedMatching*>(sim_nodes[v].get())->partner())
        << "node " << v;
  }
  expect_valid_maximal_matching(g, sim_nodes);
}

TEST_P(GeneralStrategyTest, AggregationIdenticalUnderSinr) {
  const auto g = uniform_graph(80, 3.0, 83);
  ASSERT_TRUE(graph::is_connected(g));
  const auto phys = phys_for_radius(1.0);
  const auto schedule = theorem3_schedule(g, phys);
  const auto parents = graph::bfs_parents(g, 0);

  auto make = [&](graph::NodeId v,
                  const auto&) -> std::unique_ptr<GeneralAlgorithm> {
    return std::make_unique<TreeAggregation>(v, parents[v],
                                             static_cast<std::int64_t>(v) + 1);
  };
  auto ref_nodes = instantiate_general(g, make);
  auto sim_nodes = instantiate_general(g, make);
  (void)run_reference_general(g, ref_nodes, 300);
  const auto sim =
      run_general_over_sinr_tdma(g, phys, schedule, sim_nodes, 300, GetParam());
  ASSERT_TRUE(sim.all_terminated) << sim.summary();
  EXPECT_EQ(static_cast<TreeAggregation*>(ref_nodes[0].get())->total(),
            static_cast<TreeAggregation*>(sim_nodes[0].get())->total());
  const auto n = static_cast<std::int64_t>(g.size());
  EXPECT_EQ(static_cast<TreeAggregation*>(sim_nodes[0].get())->total(),
            n * (n + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Strategies, GeneralStrategyTest,
                         ::testing::Values(GeneralStrategy::kBundled,
                                           GeneralStrategy::kSequential));

TEST(GeneralSimulation, SlotAccountingByStrategy) {
  const auto g = uniform_graph(80, 3.0, 84);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = theorem3_schedule(g, phys);
  const auto parents = graph::bfs_parents(g, 0);

  auto make = [&](graph::NodeId v,
                  const auto&) -> std::unique_ptr<GeneralAlgorithm> {
    return std::make_unique<TreeAggregation>(v, parents[v], 1);
  };
  auto bundled_nodes = instantiate_general(g, make);
  auto sequential_nodes = instantiate_general(g, make);
  const auto bundled = run_general_over_sinr_tdma(
      g, phys, schedule, bundled_nodes, 300, GeneralStrategy::kBundled);
  const auto sequential = run_general_over_sinr_tdma(
      g, phys, schedule, sequential_nodes, 300, GeneralStrategy::kSequential);

  // Bundled: exactly one frame per executed round.
  EXPECT_EQ(bundled.slots_used, static_cast<radio::Slot>(bundled.rounds) *
                                    schedule.frame_length());
  // Tree aggregation sends ≤ 1 message per node per round, so the sequential
  // strategy costs at most one frame per round too — and never more than the
  // bundled run's frames times max bundle size.
  EXPECT_LE(sequential.slots_used, bundled.slots_used);
  EXPECT_GE(bundled.max_bundle_entries, 1u);
  EXPECT_EQ(sequential.max_bundle_entries, 0u);
}

// Silent in round 0; in round 1 one message to its lowest neighbor; done
// after round 1.
class LateSender final : public GeneralAlgorithm {
 public:
  LateSender(graph::NodeId id, const graph::UnitDiskGraph& g)
      : id_(id), neighbors_(g.neighbors(id).begin(), g.neighbors(id).end()) {}

  std::vector<std::pair<graph::NodeId, Payload>> round_messages(
      std::uint32_t round) override {
    if (round != 1 || neighbors_.empty()) return {};
    return {{neighbors_.front(), {static_cast<std::int64_t>(id_)}}};
  }
  void end_round(std::uint32_t round, const Inbox& /*inbox*/) override {
    rounds_done_ = round + 1;
  }
  bool terminated() const override { return rounds_done_ >= 2; }

 private:
  graph::NodeId id_;
  std::vector<graph::NodeId> neighbors_;
  std::uint32_t rounds_done_ = 0;
};

TEST(GeneralSimulation, SilentRoundCostsNoSequentialSlot) {
  const auto g = uniform_graph(80, 3.0, 86);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = theorem3_schedule(g, phys);
  const auto frame = static_cast<radio::Slot>(schedule.frame_length());
  auto make = [](graph::NodeId v,
                 const auto& graph) -> std::unique_ptr<GeneralAlgorithm> {
    return std::make_unique<LateSender>(v, graph);
  };
  auto sequential_nodes = instantiate_general(g, make);
  auto bundled_nodes = instantiate_general(g, make);
  const auto sequential = run_general_over_sinr_tdma(
      g, phys, schedule, sequential_nodes, 10, GeneralStrategy::kSequential);
  const auto bundled = run_general_over_sinr_tdma(
      g, phys, schedule, bundled_nodes, 10, GeneralStrategy::kBundled);

  ASSERT_EQ(sequential.rounds, 2u);
  ASSERT_EQ(bundled.rounds, 2u);
  // Sequential: the silent round 0 runs no sub-frame, round 1 runs one.
  EXPECT_EQ(sequential.slots_used, frame);
  // Bundled: a full frame for every round, silent or not.
  EXPECT_EQ(bundled.slots_used, 2 * frame);
  EXPECT_EQ(sequential.missed_deliveries, 0u);
  EXPECT_EQ(sequential.deliveries, sequential.messages_sent);
}

TEST(GeneralSimulation, BundleFactorReflectsFanout) {
  // Round 0 of TreeAggregation: every non-root sends one CHILD message, so
  // bundles have exactly one entry; RandomizedMatching's announce round sends
  // up to deg-1 messages — bundle factor grows with density.
  const auto g = uniform_graph(150, 3.0, 85);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = theorem3_schedule(g, phys);
  auto nodes = instantiate_general(g, [](graph::NodeId v, const auto& graph) {
    return std::make_unique<RandomizedMatching>(v, graph, 7);
  });
  const auto sim = run_general_over_sinr_tdma(g, phys, schedule, nodes, 600,
                                              GeneralStrategy::kBundled);
  ASSERT_TRUE(sim.all_terminated);
  EXPECT_GT(sim.max_bundle_entries, 1u);
  EXPECT_LE(sim.max_bundle_entries, g.max_degree());
}

}  // namespace
}  // namespace sinrcolor::mac
