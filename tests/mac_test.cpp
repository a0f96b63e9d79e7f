#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "baseline/greedy_coloring.h"
#include "baseline/local_broadcast.h"
#include "common/rng.h"
#include "geometry/deployment.h"
#include "graph/graph_algos.h"
#include "graph/independent_set.h"
#include "mac/algorithms.h"
#include "mac/distance_d.h"
#include "mac/message_passing.h"
#include "mac/palette_reduction.h"
#include "mac/simulation.h"
#include "mac/slot_step.h"
#include "mac/tdma.h"
#include "sinr/reception.h"

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

TEST(TdmaSchedule, CompactsSparsePalette) {
  graph::Coloring c{{0, 7, 7, 100}};
  const auto schedule = TdmaSchedule::from_coloring(c);
  EXPECT_EQ(schedule.frame_length(), 3u);
  EXPECT_EQ(schedule.slot_of(0), 0u);
  EXPECT_EQ(schedule.slot_of(1), 1u);
  EXPECT_EQ(schedule.slot_of(2), 1u);
  EXPECT_EQ(schedule.slot_of(3), 2u);
  const auto members = schedule.members(1);
  EXPECT_EQ(std::vector<graph::NodeId>(members.begin(), members.end()),
            (std::vector<graph::NodeId>{1, 2}));
  EXPECT_EQ(schedule.members(0).size(), 1u);
  EXPECT_EQ(schedule.members(2).front(), 3u);
}

/// Pairs a slot step delivered and missed.
struct PairTally {
  std::size_t delivered = 0;
  std::size_t missed = 0;
};

/// Resolves one slot through `step` and holds every (sender, neighbor)
/// outcome to the per-pair oracle: a neighbor that is not itself sending
/// decodes sender i iff sinr::decodes says so.
PairTally expect_step_matches_oracle(const graph::UnitDiskGraph& g,
                                     const sinr::SinrParams& phys,
                                     SlotStep& step, radio::Slot slot,
                                     std::span<const graph::NodeId> senders) {
  step.resolve(slot, senders);
  std::vector<sinr::Transmitter> txs;
  std::vector<bool> sending(g.size(), false);
  for (graph::NodeId v : senders) {
    txs.push_back({g.position(v)});
    sending[v] = true;
  }
  PairTally tally;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    const graph::NodeId v = senders[i];
    for (graph::NodeId u : g.neighbors(v)) {
      const bool expected =
          !sending[u] && sinr::decodes(phys, g.position(u), txs, i);
      EXPECT_EQ(step.heard(u, v), expected)
          << "slot " << slot << " sender " << v << " neighbor " << u;
      ++(expected ? tally.delivered : tally.missed);
    }
  }
  return tally;
}

/// Runs every class of `schedule` through one step against the oracle.
PairTally step_schedule_against_oracle(const graph::UnitDiskGraph& g,
                                       const sinr::SinrParams& phys,
                                       const TdmaSchedule& schedule) {
  const radio::SinrInterferenceModel medium(g, phys);
  SlotStep step(g, medium);
  PairTally total;
  for (std::uint32_t t = 0; t < schedule.frame_length(); ++t) {
    const auto tally =
        expect_step_matches_oracle(g, phys, step, t, schedule.members(t));
    total.delivered += tally.delivered;
    total.missed += tally.missed;
  }
  return total;
}

TEST(SlotStep, MatchesPerPairOracleOnTheorem3Schedule) {
  const auto g = uniform_graph(150, 5.0, 42);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = TdmaSchedule::from_coloring(
      baseline::greedy_distance_d_coloring(g, phys.mac_distance_d() + 1.0));
  const auto tally = step_schedule_against_oracle(g, phys, schedule);
  EXPECT_GT(tally.delivered, 0u);
  EXPECT_EQ(tally.missed, 0u);
}

TEST(SlotStep, MatchesPerPairOracleOnLossyDistance2Schedule) {
  const auto g = uniform_graph(220, 4.0, 44);
  const auto phys = phys_for_radius(1.0);
  const auto schedule = TdmaSchedule::from_coloring(
      baseline::greedy_distance_d_coloring(g, 2.0));
  const auto tally = step_schedule_against_oracle(g, phys, schedule);
  EXPECT_GT(tally.delivered, 0u);
  EXPECT_GT(tally.missed, 0u);
}

TEST(SlotStep, MatchesPerPairOracleOnShuffledSenders) {
  // CSMA hands the medium its senders in arbitration order, not id order;
  // the interference sums run in that order on both sides.
  const auto g = uniform_graph(200, 5.0, 46);
  const auto phys = phys_for_radius(1.0);
  const radio::SinrInterferenceModel medium(g, phys);
  SlotStep step(g, medium);
  common::Rng rng(7);
  std::vector<graph::NodeId> senders;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    if (rng.bernoulli(0.15)) senders.push_back(v);
  }
  common::shuffle(senders, rng);
  ASSERT_FALSE(std::is_sorted(senders.begin(), senders.end()));
  const auto tally = expect_step_matches_oracle(g, phys, step, 0, senders);
  EXPECT_GT(tally.delivered, 0u);
  EXPECT_GT(tally.missed, 0u);
}

TEST(MacDeathTest, EveryRunnerRequiresTheUdgRadiusToBeRt) {
  // The SINR medium each runner builds pins radius == R_T; a radius-1.0
  // graph under the physical layer of R_T = 1.5 must die in every runner.
  const graph::UnitDiskGraph g(geometry::line_deployment(4, 0.5), 1.0);
  const auto phys = phys_for_radius(1.5);
  const auto schedule =
      TdmaSchedule::from_coloring(baseline::greedy_coloring(g));
  const char* const contract = "UDG radius must equal the physical-layer R_T";
  EXPECT_DEATH((void)audit_tdma_sinr(g, phys, schedule), contract);
  EXPECT_DEATH(
      {
        auto nodes = instantiate(g, [](graph::NodeId v, const auto&) {
          return std::make_unique<FloodingBfs>(v, 0);
        });
        (void)run_over_sinr_tdma(g, phys, schedule, nodes, 5);
      },
      contract);
  EXPECT_DEATH(
      {
        auto nodes = instantiate_general(g, [](graph::NodeId v, const auto& graph) {
          return std::make_unique<RandomizedMatching>(v, graph, 1);
        });
        (void)run_general_over_sinr_tdma(g, phys, schedule, nodes, 5,
                                         GeneralStrategy::kBundled);
      },
      contract);
  EXPECT_DEATH((void)reduce_palette_sinr(g, phys, schedule, g.max_degree()),
               contract);
  EXPECT_DEATH(
      (void)baseline::run_aloha_local_broadcast(g, phys, 0.1, 100, 1),
      contract);
  EXPECT_DEATH(
      (void)baseline::run_csma_local_broadcast(g, phys, 0.1, 4.0, 100, 1),
      contract);
}

TEST(TdmaAudit, Theorem3ColoringIsInterferenceFree) {
  const auto g = uniform_graph(150, 5.0, 42);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  ASSERT_TRUE(graph::is_valid_coloring(g, coloring, d + 1.0));
  const auto schedule = TdmaSchedule::from_coloring(coloring);
  const auto audit = audit_tdma_sinr(g, phys, schedule);
  EXPECT_TRUE(audit.interference_free()) << audit.summary();
  EXPECT_EQ(audit.senders_fully_heard, g.size());
}

TEST(TdmaAudit, Distance1ColoringFailsUnderSinr) {
  // Distance-1 coloring: two neighbors of a common node can share a color and
  // transmit together → guaranteed collisions at that node; also hidden far
  // interference. Dense instance makes failures certain.
  const auto g = uniform_graph(200, 4.0, 43);
  const auto phys = phys_for_radius(1.0);
  const auto coloring = baseline::greedy_coloring(g);
  ASSERT_TRUE(graph::is_valid_coloring(g, coloring, 1.0));
  const auto audit = audit_tdma_sinr(g, phys, TdmaSchedule::from_coloring(coloring));
  EXPECT_LT(audit.delivery_rate(), 1.0) << audit.summary();
}

TEST(TdmaAudit, Distance2SufficesInGraphModelButNotSinr) {
  const auto g = uniform_graph(220, 4.0, 44);
  const auto phys = phys_for_radius(1.0);
  const auto coloring = baseline::greedy_distance_d_coloring(g, 2.0);
  ASSERT_TRUE(graph::is_valid_coloring(g, coloring, 2.0));
  const auto schedule = TdmaSchedule::from_coloring(coloring);

  // Graph-based model: distance-2 is exactly the classical sufficient
  // condition — zero losses.
  const auto graph_audit = audit_tdma_graph_model(g, schedule);
  EXPECT_TRUE(graph_audit.interference_free()) << graph_audit.summary();

  // SINR: additive far interference leaks through (the paper's Section V
  // motivation). On a dense instance some pair fails.
  const auto sinr_audit = audit_tdma_sinr(g, phys, schedule);
  EXPECT_LT(sinr_audit.delivery_rate(), 1.0) << sinr_audit.summary();
  // But it is still much better than distance-1.
  EXPECT_GT(sinr_audit.delivery_rate(), 0.8) << sinr_audit.summary();
}

TEST(DistanceD, ProtocolColoringValidAtDistanceD) {
  const auto g = uniform_graph(70, 4.5, 45);
  core::MwRunConfig cfg;
  cfg.seed = 9;
  const double d = 2.0;
  const auto result = compute_distance_d_coloring(g, d, cfg);
  EXPECT_TRUE(result.run.metrics.all_decided);
  EXPECT_TRUE(graph::is_valid_coloring(g, result.coloring, d))
      << result.run.summary();
  EXPECT_GE(result.scaled_max_degree, g.max_degree());
}

TEST(DistanceD, Theorem3PredicateChecksDistance)
{
  const auto g = uniform_graph(80, 5.0, 46);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  const auto good = baseline::greedy_distance_d_coloring(g, d + 1.0);
  EXPECT_TRUE(satisfies_theorem3_distance(g, good, phys.alpha, phys.beta));
  const auto bad = baseline::greedy_coloring(g);
  EXPECT_FALSE(satisfies_theorem3_distance(g, bad, phys.alpha, phys.beta));
}

TEST(MessagePassing, InboxLookup) {
  Inbox inbox;
  inbox.messages = {{2, {10}}, {5, {20}}};
  ASSERT_NE(inbox.from(2), nullptr);
  EXPECT_EQ((*inbox.from(2))[0], 10);
  EXPECT_EQ(inbox.from(3), nullptr);
}

TEST(MessagePassing, FloodingMatchesBfsOracle) {
  const auto g = uniform_graph(100, 3.5, 47);
  auto nodes = instantiate(g, [](graph::NodeId v, const graph::UnitDiskGraph&) {
    return std::make_unique<FloodingBfs>(v, 0);
  });
  const auto result = run_reference(g, nodes, 200);
  EXPECT_TRUE(result.all_terminated || !graph::is_connected(g));

  const auto oracle_dist = graph::bfs_distances(g, 0);
  const auto oracle_parent = graph::bfs_parents(g, 0);
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto* algo = static_cast<FloodingBfs*>(nodes[v].get());
    if (oracle_dist[v] == graph::kUnreachable) {
      EXPECT_EQ(algo->distance(), FloodingBfs::kUndiscovered);
    } else {
      EXPECT_EQ(algo->distance(), oracle_dist[v]);
      if (v != 0) {
        EXPECT_EQ(algo->parent(), oracle_parent[v]);
      }
    }
  }
}

TEST(MessagePassing, LubyMisIsMaximalIndependent) {
  const auto g = uniform_graph(120, 4.0, 48);
  auto nodes = instantiate(g, [](graph::NodeId v, const graph::UnitDiskGraph&) {
    return std::make_unique<LubyMis>(v, 999);
  });
  const auto result = run_reference(g, nodes, 400);
  ASSERT_TRUE(result.all_terminated);
  std::vector<graph::NodeId> mis;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    if (static_cast<LubyMis*>(nodes[v].get())->in_mis()) mis.push_back(v);
  }
  EXPECT_TRUE(graph::is_maximal_independent_set(g, mis));
}

TEST(MessagePassing, MaxIdGossipConverges) {
  const auto g = uniform_graph(60, 2.5, 49);
  ASSERT_TRUE(graph::is_connected(g));
  const auto diameter = graph::hop_diameter(g);
  auto nodes = instantiate(g, [&](graph::NodeId v, const graph::UnitDiskGraph&) {
    return std::make_unique<MaxIdGossip>(v, diameter + 1);
  });
  const auto result = run_reference(g, nodes, diameter + 2);
  ASSERT_TRUE(result.all_terminated);
  for (const auto& node : nodes) {
    EXPECT_EQ(static_cast<MaxIdGossip*>(node.get())->max_id(), g.size() - 1);
  }
}

// Corollary 1: simulation over the SINR TDMA MAC reproduces the reference
// outputs exactly, for every algorithm.
class SimulationEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulationEquivalenceTest, FloodingIdenticalUnderSinr) {
  const auto g = uniform_graph(90, 3.5, GetParam());
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  const auto schedule = TdmaSchedule::from_coloring(coloring);

  auto make = [](graph::NodeId v,
                 const graph::UnitDiskGraph&) -> std::unique_ptr<UniformAlgorithm> {
    return std::make_unique<FloodingBfs>(v, 0);
  };
  auto ref_nodes = instantiate(g, make);
  auto sim_nodes = instantiate(g, make);
  const auto ref = run_reference(g, ref_nodes, 300);
  const auto sim = run_over_sinr_tdma(g, phys, schedule, sim_nodes, 300);

  EXPECT_EQ(sim.missed_deliveries, 0u) << sim.summary();
  EXPECT_EQ(ref.rounds, sim.rounds);
  EXPECT_EQ(sim.slots_used,
            static_cast<radio::Slot>(sim.rounds) * schedule.frame_length());
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto* a = static_cast<FloodingBfs*>(ref_nodes[v].get());
    const auto* b = static_cast<FloodingBfs*>(sim_nodes[v].get());
    ASSERT_EQ(a->distance(), b->distance()) << "node " << v;
    ASSERT_EQ(a->parent(), b->parent()) << "node " << v;
  }
}

TEST_P(SimulationEquivalenceTest, LubyIdenticalUnderSinr) {
  const auto g = uniform_graph(90, 3.5, GetParam() + 1000);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  const auto schedule = TdmaSchedule::from_coloring(coloring);

  auto make = [](graph::NodeId v,
                 const graph::UnitDiskGraph&) -> std::unique_ptr<UniformAlgorithm> {
    return std::make_unique<LubyMis>(v, 4242);
  };
  auto ref_nodes = instantiate(g, make);
  auto sim_nodes = instantiate(g, make);
  (void)run_reference(g, ref_nodes, 400);
  const auto sim = run_over_sinr_tdma(g, phys, schedule, sim_nodes, 400);
  EXPECT_EQ(sim.missed_deliveries, 0u) << sim.summary();
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    ASSERT_EQ(static_cast<LubyMis*>(ref_nodes[v].get())->in_mis(),
              static_cast<LubyMis*>(sim_nodes[v].get())->in_mis())
        << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationEquivalenceTest,
                         ::testing::Values(60, 61, 62));

TEST(Simulation, InsufficientColoringDegradesOutputs) {
  // With a distance-1 schedule the MAC loses deliveries; the executor must
  // keep going and report them rather than abort.
  const auto g = uniform_graph(150, 3.0, 63);
  const auto phys = phys_for_radius(1.0);
  const auto schedule =
      TdmaSchedule::from_coloring(baseline::greedy_coloring(g));
  auto nodes = instantiate(g, [](graph::NodeId v, const graph::UnitDiskGraph&) {
    return std::make_unique<MaxIdGossip>(v, 3);
  });
  const auto sim = run_over_sinr_tdma(g, phys, schedule, nodes, 5);
  EXPECT_GT(sim.missed_deliveries, 0u) << sim.summary();
}

TEST(PaletteReduction, ReferenceProducesDeltaPlusOne) {
  const auto g = uniform_graph(130, 4.0, 64);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  const auto schedule = TdmaSchedule::from_coloring(coloring);
  const auto reduced = reduce_palette_reference(g, schedule, g.max_degree());
  EXPECT_TRUE(graph::is_valid_coloring(g, reduced));
  EXPECT_LE(reduced.palette_size(), g.max_degree() + 1);
}

TEST(PaletteReduction, SinrMatchesReferenceWithTheorem3Schedule) {
  const auto g = uniform_graph(130, 4.0, 65);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  const auto schedule = TdmaSchedule::from_coloring(coloring);

  const auto result = reduce_palette_sinr(g, phys, schedule, g.max_degree());
  EXPECT_EQ(result.missed_deliveries, 0u);
  EXPECT_TRUE(result.valid);
  EXPECT_LE(result.palette, g.max_degree() + 1);
  EXPECT_EQ(result.slots_used,
            static_cast<radio::Slot>(schedule.frame_length()));
  const auto reference = reduce_palette_reference(g, schedule, g.max_degree());
  EXPECT_EQ(result.reduced.color, reference.color);
}

}  // namespace
}  // namespace sinrcolor::mac
