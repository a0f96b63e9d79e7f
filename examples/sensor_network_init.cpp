// Sensor-network initialization — the scenario the paper's introduction
// motivates: nodes of a freshly scattered sensor field wake up at arbitrary
// times with no structure whatsoever, self-organize a coloring under real
// (SINR) interference, derive an interference-free TDMA MAC from it, and
// finally build a data-collection (BFS) tree toward a sink by running a
// classical message-passing algorithm over the simulated MAC (Corollary 1).
//
//   ./examples/sensor_network_init [--n=150] [--side=4.5] [--clusters=4]
//                                  [--seed=7] [--wakeup-window=2000]
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/cli.h"
#include "common/rng.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/graph_algos.h"
#include "mac/algorithms.h"
#include "mac/distance_d.h"
#include "mac/simulation.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 150, 1));
  const double side = cli.get_double("side", 4.5);
  const auto clusters = static_cast<std::size_t>(cli.get_int("clusters", 4));
  const auto seed = cli.get_seed("seed", 7);
  const auto wakeup_window = cli.get_int("wakeup-window", 2000);
  cli.reject_unknown();

  // --- Deployment: clustered field (hotspots around collection points). ---
  common::Rng rng(seed);
  graph::UnitDiskGraph g(
      geometry::clustered_deployment(n, side, clusters, 1.2, rng), 1.0);
  std::printf("[deploy] n=%zu clusters=%zu Delta=%zu connected=%s\n", g.size(),
              clusters, g.max_degree(), graph::is_connected(g) ? "yes" : "no");

  sinr::SinrParams phys;
  phys.noise = phys.power / (2.0 * phys.beta * std::pow(g.radius(), phys.alpha));
  const double d = phys.mac_distance_d();
  std::printf("[phys]   %s\n", phys.to_string().c_str());

  // --- Phase 1: distributed (d+1)-coloring with asynchronous wake-ups. ---
  core::MwRunConfig config;
  config.seed = seed;
  config.wakeup = core::WakeupKind::kUniform;
  config.wakeup_window = wakeup_window;
  const auto coloring = mac::compute_distance_d_coloring(g, d + 1.0, config);
  std::printf("[color]  %s\n", coloring.run.summary().c_str());
  if (!coloring.run.metrics.all_decided ||
      !graph::is_valid_coloring(g, coloring.coloring, d + 1.0)) {
    std::printf("[color]  FAILED to produce a valid (d+1,*)-coloring\n");
    return 1;
  }

  // --- Phase 2: TDMA MAC from the coloring (Theorem 3). ---
  const auto schedule = mac::TdmaSchedule::from_coloring(coloring.coloring);
  const auto audit = mac::audit_tdma_sinr(g, phys, schedule);
  std::printf("[mac]    %s\n", audit.summary().c_str());
  if (!audit.interference_free()) {
    std::printf("[mac]    schedule is not interference-free!\n");
    return 1;
  }

  // --- Phase 3: build the collection tree via simulated flooding. ---
  const graph::NodeId sink = 0;
  auto nodes = mac::instantiate(g, [&](graph::NodeId v, const graph::UnitDiskGraph&) {
    return std::make_unique<mac::FloodingBfs>(v, sink);
  });
  const auto sim = mac::run_over_sinr_tdma(g, phys, schedule, nodes, 500);
  std::printf("[tree]   %s\n", sim.summary().c_str());

  const auto oracle = graph::bfs_distances(g, sink);
  std::size_t matched = 0;
  std::size_t reachable = 0;
  std::uint32_t depth = 0;
  for (graph::NodeId v = 0; v < g.size(); ++v) {
    if (oracle[v] == graph::kUnreachable) continue;
    ++reachable;
    const auto* algo = static_cast<mac::FloodingBfs*>(nodes[v].get());
    if (algo->distance() == oracle[v]) ++matched;
    depth = std::max(depth, oracle[v]);
  }
  std::printf(
      "[tree]   %zu/%zu reachable nodes at oracle depth (tree depth %u), "
      "%lld radio slots total\n",
      matched, reachable, depth, static_cast<long long>(sim.slots_used));
  return matched == reachable ? 0 : 1;
}
