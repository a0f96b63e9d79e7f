// X1 — Theorem 2 (palette): the algorithm produces a (1, O(Δ))-coloring;
// specifically at most (φ(2R_T)+1)·Δ colors. We sweep the density so Δ grows
// and check (a) validity, (b) linear palette growth in Δ, (c) the max color
// stays under the bound of the profile in use.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "graph/packing.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 220, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 3, 1));
  const std::string csv_path = cli.get("csv", "");
  cli.reject_unknown();

  bench::print_experiment_header(
      "X1: colors vs Delta",
      "Theorem 2 — palette is O(Delta): max color <= (phi(2R_T)+1)*Delta, "
      "distinct colors grow ~linearly in Delta");

  common::Table table({"avg_deg_target", "Delta", "colors", "max_color",
                       "bound", "clique_LB", "colors/Delta", "colors/LB",
                       "valid", "slots"});
  std::vector<double> xs, ys;
  bool all_valid = true;
  bool bound_held = true;

  for (double avg : {4.0, 8.0, 12.0, 16.0, 22.0, 28.0}) {
    common::Accumulator delta_acc, colors_acc, maxc_acc, slots_acc, clique_acc;
    long long bound = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, avg, 1000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 5000 + s;
      const auto r = core::run_mw_coloring(g, cfg);
      all_valid &= r.coloring_valid && r.metrics.all_decided;
      bound = r.params.palette_bound();
      bound_held &= r.max_color <= 2 * bound;  // practical-profile guard
      delta_acc.add(static_cast<double>(g.max_degree()));
      colors_acc.add(static_cast<double>(r.palette));
      maxc_acc.add(static_cast<double>(r.max_color));
      slots_acc.add(static_cast<double>(r.metrics.slots_executed));
      clique_acc.add(static_cast<double>(graph::greedy_clique_lower_bound(g)));
    }
    xs.push_back(delta_acc.mean());
    ys.push_back(colors_acc.mean());
    table.add_row({common::Table::num(avg, 0),
                   common::Table::num(delta_acc.mean(), 1),
                   common::Table::num(colors_acc.mean(), 1),
                   common::Table::num(maxc_acc.mean(), 1),
                   common::Table::integer(bound),
                   common::Table::num(clique_acc.mean(), 1),
                   common::Table::num(colors_acc.mean() / delta_acc.mean(), 2),
                   common::Table::num(colors_acc.mean() / clique_acc.mean(), 2),
                   all_valid ? "yes" : "NO",
                   common::Table::num(slots_acc.mean(), 0)});
  }
  table.print(std::cout);
  if (!csv_path.empty() && table.write_csv(csv_path)) {
    std::printf("rows written to %s\n", csv_path.c_str());
  }

  const auto fit = common::fit_linear(xs, ys);
  std::printf("colors vs Delta: slope=%.2f intercept=%.1f R^2=%.3f "
              "(linear, slope well below phi(2R_T)+1 = 6)\n",
              fit.slope, fit.intercept, fit.r_squared);

  const bool linear = fit.r_squared > 0.85 && fit.slope < 6.0 && fit.slope > 0.2;
  return bench::print_verdict(
      all_valid && bound_held && linear,
      all_valid ? (linear ? "valid colorings, palette grows linearly in Delta"
                          : "palette growth not linear in Delta")
                : "some run produced an invalid coloring");
}
