// X11 — sensitivity to the knowledge assumption (paper Section VI's open
// question: "can we get rid of the knowledge of Δ and n?"). The protocol's
// parameters are derived from Δ and n; here nodes run with ESTIMATES:
//   * overestimates: correctness survives (windows/probabilities only get
//     more conservative) at a near-linear time cost in Δ̂/Δ;
//   * underestimates of Δ: q_s is too large and windows too short — the
//     delivery guarantees behind Theorem 1 erode, violations appear.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 250, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 4, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X11: cost of mis-estimating Delta and n",
      "overestimating the paper's required knowledge is safe but slow; "
      "underestimating Delta breaks the delivery guarantees");

  common::Table table({"estimate", "violations", "invalid_runs",
                       "avg_latency", "latency vs exact"});

  struct Row {
    const char* name;
    double delta_factor;
    double n_factor;
  };
  const Row rows[] = {
      {"exact Delta, exact n", 1.0, 1.0},
      {"Delta x2 (overestimate)", 2.0, 1.0},
      {"Delta x4 (overestimate)", 4.0, 1.0},
      {"n x16 (overestimate)", 1.0, 16.0},
      {"Delta /2 (underestimate)", 0.5, 1.0},
      {"Delta /4 (underestimate)", 0.25, 1.0},
  };

  double exact_latency = 0.0;
  bool over_ok = true, under_breaks = false, exact_ok = true;
  for (const auto& row : rows) {
    std::size_t violations = 0, invalid = 0;
    common::Accumulator latency;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 16.0, 25000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 47000 + s;
      cfg.delta_estimate = static_cast<std::size_t>(
          std::max(1.0, static_cast<double>(g.max_degree()) * row.delta_factor));
      cfg.n_estimate =
          static_cast<std::size_t>(static_cast<double>(n) * row.n_factor);
      const auto r = core::run_mw_coloring(g, cfg);
      violations += r.independence_violations;
      invalid += (r.coloring_valid && r.metrics.all_decided) ? 0 : 1;
      latency.add(static_cast<double>(r.metrics.slots_executed));
    }
    if (row.delta_factor == 1.0 && row.n_factor == 1.0) {
      exact_latency = latency.mean();
      exact_ok = violations == 0 && invalid == 0;
    } else if (row.delta_factor >= 1.0) {
      over_ok &= violations == 0 && invalid == 0;
    } else {
      under_breaks |= violations + invalid > 0;
    }
    table.add_row({row.name,
                   common::Table::integer(static_cast<long long>(violations)),
                   common::Table::integer(static_cast<long long>(invalid)),
                   common::Table::num(latency.mean(), 0),
                   exact_latency > 0
                       ? common::Table::num(latency.mean() / exact_latency, 2)
                       : std::string("1.00")});
  }
  table.print(std::cout);

  return bench::print_verdict(
      exact_ok && over_ok && under_breaks,
      "exact/overestimated knowledge stays correct (overestimates pay time); "
      "underestimating Delta visibly breaks correctness");
}
