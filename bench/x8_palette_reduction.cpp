// X8 — Section V (palette reduction): starting from a (d, O(Δ))-coloring and
// its interference-free schedule, one announcement per color class yields a
// (1, Δ+1)-coloring — removing the constants hidden in the MW palette — at
// the cost of one extra TDMA frame.
#include <cstdio>
#include <iostream>

#include "baseline/greedy_coloring.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "mac/distance_d.h"
#include "mac/palette_reduction.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 2, 1));
  const bool protocol_coloring = cli.get_bool("protocol-coloring", true);
  cli.reject_unknown();

  bench::print_experiment_header(
      "X8: palette reduction to Delta+1 colors",
      "Section V — a (d,O(Delta))-coloring plus one announcement frame gives "
      "a (1, Delta+1)-coloring under SINR");

  const auto phys = bench::phys_for_radius(1.0);
  const double d = phys.mac_distance_d();

  common::Table table({"n", "Delta", "source", "colors before", "colors after",
                       "Delta+1", "extra slots", "valid", "missed"});
  bool ok = true;

  for (std::size_t n : {150UL, 300UL}) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 12.0, 17000 + s);

      // Source coloring: the distributed protocol on G^{d+1} by default
      // (slower), or the centralized greedy for quick runs.
      graph::Coloring coloring;
      const char* source;
      if (protocol_coloring && s == 0) {
        core::MwRunConfig cfg;
        cfg.seed = 23000 + s;
        const auto result = mac::compute_distance_d_coloring(g, d + 1.0, cfg);
        ok &= result.run.metrics.all_decided;
        coloring = result.coloring;
        source = "MW protocol";
      } else {
        coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
        source = "greedy";
      }
      ok &= graph::is_valid_coloring(g, coloring, d + 1.0);

      const auto schedule = mac::TdmaSchedule::from_coloring(coloring);
      const auto reduced =
          mac::reduce_palette_sinr(g, phys, schedule, g.max_degree());
      ok &= reduced.valid && reduced.missed_deliveries == 0 &&
            reduced.palette <= g.max_degree() + 1;

      table.add_row(
          {common::Table::integer(static_cast<long long>(n)),
           common::Table::integer(static_cast<long long>(g.max_degree())),
           source,
           common::Table::integer(static_cast<long long>(coloring.palette_size())),
           common::Table::integer(static_cast<long long>(reduced.palette)),
           common::Table::integer(static_cast<long long>(g.max_degree() + 1)),
           common::Table::integer(static_cast<long long>(reduced.slots_used)),
           reduced.valid ? "yes" : "NO",
           common::Table::integer(
               static_cast<long long>(reduced.missed_deliveries))});
    }
  }
  table.print(std::cout);

  return bench::print_verdict(
      ok, "every reduction produced a valid (1, Delta+1)-coloring with zero "
          "lost announcements");
}
