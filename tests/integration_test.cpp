// End-to-end pipelines: deployment → distributed coloring → TDMA MAC →
// simulated message passing / palette reduction, with the Lemma-3 probe
// attached to a live protocol run.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/graph_algos.h"
#include "graph/independent_set.h"
#include "mac/algorithms.h"
#include "mac/distance_d.h"
#include "mac/palette_reduction.h"
#include "mac/simulation.h"
#include "mac/tdma.h"
#include "sinr/probes.h"

namespace sinrcolor {
namespace {

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

TEST(Integration, FullPipelineColoringToSimulatedAlgorithms) {
  common::Rng rng(1234);
  graph::UnitDiskGraph g(geometry::uniform_deployment(80, 4.0, rng), 1.0);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();

  // 1. Distributed (d+1)-coloring via the MW protocol on G^{d+1}.
  core::MwRunConfig cfg;
  cfg.seed = 99;
  const auto dcoloring = mac::compute_distance_d_coloring(g, d + 1.0, cfg);
  ASSERT_TRUE(dcoloring.run.metrics.all_decided);
  ASSERT_TRUE(graph::is_valid_coloring(g, dcoloring.coloring, d + 1.0));

  // 2. Theorem 3: the schedule is interference-free under SINR.
  const auto schedule = mac::TdmaSchedule::from_coloring(dcoloring.coloring);
  const auto audit = mac::audit_tdma_sinr(g, phys, schedule);
  EXPECT_TRUE(audit.interference_free()) << audit.summary();

  // 3. Corollary 1: simulate flooding over the MAC; outputs = BFS oracle.
  auto nodes = mac::instantiate(g, [](graph::NodeId v, const graph::UnitDiskGraph&) {
    return std::make_unique<mac::FloodingBfs>(v, 0);
  });
  const auto sim = mac::run_over_sinr_tdma(g, phys, schedule, nodes, 300);
  EXPECT_EQ(sim.missed_deliveries, 0u);
  const auto oracle = graph::bfs_distances(g, 0);
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    const auto* algo = static_cast<mac::FloodingBfs*>(nodes[v].get());
    if (oracle[v] != graph::kUnreachable) {
      ASSERT_EQ(algo->distance(), oracle[v]);
    }
  }

  // 4. Palette reduction on the same schedule yields a (1, Δ+1)-coloring.
  const auto reduced =
      mac::reduce_palette_sinr(g, phys, schedule, g.max_degree());
  EXPECT_TRUE(reduced.valid);
  EXPECT_LE(reduced.palette, g.max_degree() + 1);
}

TEST(Integration, Lemma3ProbeDuringLiveRun) {
  common::Rng rng(777);
  graph::UnitDiskGraph g(geometry::uniform_deployment(120, 4.0, rng), 1.0);
  const auto phys = phys_for_radius(1.0);
  const double r_i = phys.r_i();

  core::MwRunConfig cfg;
  cfg.seed = 5;
  core::MwInstance instance(g, cfg);

  // Probe the probabilistic far interference Ψ_u^{v∉I_u} at a few sample
  // nodes every 64 slots; Lemma 3 bounds it by P/(2ρβR_T^α). The practical
  // profile keeps the paper's q_s = q_ℓ/Δ scaling with q_ℓ ≤ 1/φ-equivalent
  // mass, so the bound must hold throughout the run.
  sinr::BoundProbe probe(phys.lemma3_interference_bound());
  std::vector<geometry::Point> positions = g.deployment().points;
  std::vector<double> probs(g.size(), 0.0);
  const auto& nodes = instance.nodes();
  instance.simulator().add_observer(
      [&](radio::Slot slot, std::span<const radio::TxRecord>) {
        if (slot % 64 != 0) return;
        for (std::size_t v = 0; v < nodes.size(); ++v) {
          probs[v] = nodes[v]->tx_probability();
        }
        for (graph::NodeId u = 0; u < g.size(); u += 17) {
          probe.record(sinr::probabilistic_interference_outside(
              phys, g.position(u), positions, probs, r_i, u));
        }
      });

  const auto result = instance.run();
  ASSERT_TRUE(result.metrics.all_decided);
  EXPECT_GT(probe.samples(), 0u);
  EXPECT_EQ(probe.violations(), 0u)
      << "max " << probe.max_observed() << " vs bound " << probe.bound();
}

TEST(Integration, UniformWakeupPipelineStillInterferenceFree) {
  common::Rng rng(31337);
  graph::UnitDiskGraph g(geometry::uniform_deployment(60, 3.5, rng), 1.0);
  const auto phys = phys_for_radius(1.0);
  const double d = phys.mac_distance_d();

  core::MwRunConfig cfg;
  cfg.seed = 6;
  cfg.wakeup = core::WakeupKind::kUniform;
  cfg.wakeup_window = 2000;
  const auto dcoloring = mac::compute_distance_d_coloring(g, d + 1.0, cfg);
  ASSERT_TRUE(dcoloring.run.metrics.all_decided);
  ASSERT_EQ(dcoloring.run.independence_violations, 0u);

  const auto schedule = mac::TdmaSchedule::from_coloring(dcoloring.coloring);
  const auto audit = mac::audit_tdma_sinr(g, phys, schedule);
  EXPECT_TRUE(audit.interference_free()) << audit.summary();
}

TEST(Integration, LeadersFormMaximalIndependentSetAfterConvergence) {
  common::Rng rng(2024);
  graph::UnitDiskGraph g(geometry::uniform_deployment(100, 4.0, rng), 1.0);
  core::MwRunConfig cfg;
  cfg.seed = 7;
  const auto result = core::run_mw_coloring(g, cfg);
  ASSERT_TRUE(result.metrics.all_decided);
  // Leaders are independent; and every node is adjacent to (or is) a leader —
  // otherwise it could never have been assigned a cluster color.
  EXPECT_TRUE(graph::is_maximal_independent_set(g, result.leaders));
}

}  // namespace
}  // namespace sinrcolor
