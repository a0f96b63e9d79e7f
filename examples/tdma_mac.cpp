// TDMA MAC under SINR: why the paper needs a distance-(d+1) coloring.
//
// Builds colorings at distances 1, 2 and ⌈d+1⌉ for the same network, turns
// each into a TDMA schedule, and audits one full broadcast frame under both
// the graph-based collision model and the SINR physical model; also runs the
// slotted-ALOHA baseline for contrast. Distance-2 is the textbook sufficient
// condition in the graph model — and visibly insufficient under SINR.
//
//   ./examples/tdma_mac [--n=250] [--side=4.5] [--seed=3] [--aloha-p=0.05]
#include <cstdio>
#include <iostream>

#include "baseline/aloha.h"
#include "baseline/greedy_coloring.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "geometry/deployment.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 250, 1));
  const double side = cli.get_double_at_least("side", 4.5, 1e-9);
  const auto seed = cli.get_seed("seed", 3);
  const double aloha_p =
      cli.get_probability("aloha-p", 0.05, /*allow_one=*/false);
  cli.reject_unknown();

  common::Rng rng(seed);
  graph::UnitDiskGraph g(geometry::uniform_deployment(n, side, rng), 1.0);
  const sinr::SinrParams phys = sinr::SinrParams{}.with_r_t(g.radius());
  const double d = phys.mac_distance_d();
  std::printf("n=%zu Delta=%zu, Theorem-3 constant d=%.3f (schedule needs a "
              "distance-%.3f coloring)\n",
              g.size(), g.max_degree(), d, d + 1.0);

  common::Table table({"coloring", "colors (frame)", "graph-model delivery",
                       "SINR delivery", "SINR interference-free"});
  for (double dist : {1.0, 2.0, d + 1.0}) {
    const auto coloring = baseline::greedy_distance_d_coloring(g, dist);
    const auto schedule = mac::TdmaSchedule::from_coloring(coloring);
    const auto graph_audit = mac::audit_tdma_graph_model(g, schedule);
    const auto sinr_audit = mac::audit_tdma_sinr(g, phys, schedule);
    char label[32];
    std::snprintf(label, sizeof label, "distance-%.2f", dist);
    table.add_row({label,
                   common::Table::integer(schedule.frame_length()),
                   common::Table::percent(graph_audit.delivery_rate(), 2),
                   common::Table::percent(sinr_audit.delivery_rate(), 2),
                   sinr_audit.interference_free() ? "yes" : "no"});
  }
  table.print(std::cout);

  const auto aloha =
      baseline::run_aloha_local_broadcast(g, phys, aloha_p, 2'000'000, seed);
  std::printf(
      "\nALOHA baseline (p=%.3f): one local broadcast per node takes %lld "
      "slots to complete (p95 %lld) — versus one deterministic TDMA frame.\n",
      aloha_p, static_cast<long long>(aloha.slots),
      static_cast<long long>(aloha.slots_p95));
  return 0;
}
