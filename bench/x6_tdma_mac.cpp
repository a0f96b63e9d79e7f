// X6 — Theorem 3: a (d+1, V)-coloring with d = (32·(α−1)/(α−2)·β)^{1/α}
// schedules an interference-FREE TDMA MAC under SINR, while distance-1 and
// distance-2 colorings (the latter sufficient in the graph model) are not.
// The crossover between distance-2 and distance-(d+1) is the experiment's
// headline shape; ALOHA shows what no schedule at all costs.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "baseline/aloha.h"
#include "baseline/greedy_coloring.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 300, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 3, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X6: TDMA MAC delivery vs coloring distance",
      "Theorem 3 — distance-(d+1) coloring => 100% delivery under SINR; "
      "distance-2 suffices only in the graph model; distance-1 fails in both");

  const auto phys = bench::phys_for_radius(1.0);
  const double d = phys.mac_distance_d();
  std::printf("alpha=%.1f beta=%.1f => d=%.3f (schedule needs distance-%.3f)\n",
              phys.alpha, phys.beta, d, d + 1.0);

  common::Table table({"coloring", "frame(V)", "graph-model", "SINR",
                       "SINR 100%-runs"});
  double sinr_rate_d2 = 0.0;
  bool d1_fails = true, dfull_perfect = true, d2_graph_perfect = true;

  for (double dist : {1.0, 2.0, d + 1.0}) {
    common::Accumulator frame, graph_rate, sinr_rate;
    std::size_t perfect = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 16.0, 8000 + s);
      const auto coloring = baseline::greedy_distance_d_coloring(g, dist);
      const auto schedule = mac::TdmaSchedule::from_coloring(coloring);
      const auto ga = mac::audit_tdma_graph_model(g, schedule);
      const auto sa = mac::audit_tdma_sinr(g, phys, schedule);
      frame.add(schedule.frame_length());
      graph_rate.add(ga.delivery_rate());
      sinr_rate.add(sa.delivery_rate());
      perfect += sa.interference_free();
      if (dist == 1.0) d1_fails &= !sa.interference_free();
      if (dist == 2.0) d2_graph_perfect &= ga.interference_free();
      if (dist > 2.0) dfull_perfect &= sa.interference_free();
    }
    if (dist == 2.0) sinr_rate_d2 = sinr_rate.mean();
    char label[32];
    std::snprintf(label, sizeof label, "distance-%.2f", dist);
    char perfect_str[16];
    std::snprintf(perfect_str, sizeof perfect_str, "%zu/%llu", perfect,
                  static_cast<unsigned long long>(seeds));
    table.add_row({label, common::Table::num(frame.mean(), 1),
                   common::Table::percent(graph_rate.mean(), 2),
                   common::Table::percent(sinr_rate.mean(), 2), perfect_str});
  }
  table.print(std::cout);

  // ALOHA baseline: slots for one complete local broadcast round.
  {
    common::Accumulator slots;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 16.0, 8000 + s);
      const auto a =
          baseline::run_aloha_local_broadcast(g, phys, 0.04, 3'000'000, 77 + s);
      if (a.completed) slots.add(static_cast<double>(a.slots));
    }
    std::printf("ALOHA (p=0.04): %.0f slots for one full local-broadcast "
                "round (vs one TDMA frame above)\n",
                slots.mean());
  }

  const bool crossover = d2_graph_perfect && sinr_rate_d2 < 1.0 && dfull_perfect;
  return bench::print_verdict(
      crossover && d1_fails,
      "crossover exactly where the paper puts it: distance-2 is perfect in "
      "the graph model but lossy under SINR; distance-(d+1) is lossless");
}
