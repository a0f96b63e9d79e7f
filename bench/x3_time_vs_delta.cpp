// X3 — Theorem 2 (time, growth in Δ): at fixed n, decision latency grows
// ~linearly in Δ (the O(Δ log n) bound with log n pinned).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 256, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 2, 1));
  const std::string csv_path = cli.get("csv", "");
  cli.reject_unknown();

  bench::print_experiment_header(
      "X3: time vs Delta (fixed n)",
      "Theorem 2 — time is O(Delta log n): with n fixed, max decision "
      "latency grows ~linearly in Delta");

  common::Table table(
      {"avg_deg_target", "Delta", "max_latency", "latency/Delta", "valid"});
  std::vector<double> xs, ys;
  bool all_valid = true;

  for (double avg : {4.0, 8.0, 14.0, 20.0, 26.0}) {
    common::Accumulator delta_acc, lat_acc;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, avg, 3000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 9000 + s;
      const auto r = core::run_mw_coloring(g, cfg);
      all_valid &= r.coloring_valid && r.metrics.all_decided;
      delta_acc.add(static_cast<double>(g.max_degree()));
      lat_acc.add(static_cast<double>(r.metrics.max_decision_latency()));
    }
    xs.push_back(delta_acc.mean());
    ys.push_back(lat_acc.mean());
    table.add_row({common::Table::num(avg, 0),
                   common::Table::num(delta_acc.mean(), 1),
                   common::Table::num(lat_acc.mean(), 0),
                   common::Table::num(lat_acc.mean() / delta_acc.mean(), 0),
                   all_valid ? "yes" : "NO"});
  }
  table.print(std::cout);
  if (!csv_path.empty() && table.write_csv(csv_path)) {
    std::printf("rows written to %s\n", csv_path.c_str());
  }

  const auto fit = common::fit_linear(xs, ys);
  std::printf("latency vs Delta: slope=%.0f intercept=%.0f R^2=%.3f\n",
              fit.slope, fit.intercept, fit.r_squared);
  const bool linear = fit.r_squared > 0.85 && fit.slope > 0.0;
  return bench::print_verdict(all_valid && linear,
                              linear ? "latency grows linearly in Delta"
                                     : "latency not linear in Delta");
}
