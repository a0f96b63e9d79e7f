// X9 — what the paper's re-tuning buys: the same MW state machine run with
// (a) graph-model constants under the graph-based medium (the original
//     algorithm in its own model) — works, fastest;
// (b) graph-model constants under the SINR medium — the delivery guarantees
//     its windows assume no longer hold, so independence violations and
//     invalid colorings appear;
// (c) the paper's SINR-tuned constants under the SINR medium — works.
#include <cstdio>
#include <iostream>

#include "baseline/mw_graph_model.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 300, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 5, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X9: graph-model vs SINR-tuned MW",
      "the graph-model algorithm breaks under SINR (violations/invalid "
      "colorings); the paper's re-tuned constants restore correctness at a "
      "constant-factor time cost");

  common::Table table({"configuration", "runs", "violations", "invalid",
                       "colors(avg)", "latency(avg)"});

  struct Row {
    std::size_t violations = 0;
    std::size_t invalid = 0;
    common::Accumulator colors, latency;
  };
  Row rows[3];
  const char* names[3] = {"graph tuning / graph medium (original MW)",
                          "graph tuning / SINR medium (naive port)",
                          "SINR tuning / SINR medium (this paper)"};

  for (std::uint64_t s = 0; s < seeds; ++s) {
    const auto g = bench::uniform_graph_with_density(n, 18.0, 19000 + s);
    const core::MwRunResult results[3] = {
        baseline::run_mw_graph_model(g, 31000 + s),
        baseline::run_mw_graph_tuning_under_sinr(g, 31000 + s),
        [&] {
          core::MwRunConfig cfg;
          cfg.seed = 31000 + s;
          return core::run_mw_coloring(g, cfg);
        }(),
    };
    for (int k = 0; k < 3; ++k) {
      rows[k].violations += results[k].independence_violations;
      rows[k].invalid +=
          (results[k].coloring_valid && results[k].metrics.all_decided) ? 0 : 1;
      rows[k].colors.add(static_cast<double>(results[k].palette));
      rows[k].latency.add(
          static_cast<double>(results[k].metrics.slots_executed));
    }
  }

  for (int k = 0; k < 3; ++k) {
    table.add_row({names[k],
                   common::Table::integer(static_cast<long long>(seeds)),
                   common::Table::integer(static_cast<long long>(rows[k].violations)),
                   common::Table::integer(static_cast<long long>(rows[k].invalid)),
                   common::Table::num(rows[k].colors.mean(), 1),
                   common::Table::num(rows[k].latency.mean(), 0)});
  }
  table.print(std::cout);

  const bool original_ok = rows[0].violations == 0 && rows[0].invalid == 0;
  const bool naive_breaks = rows[1].violations + rows[1].invalid > 0;
  const bool retuned_ok = rows[2].violations == 0 && rows[2].invalid == 0;
  std::printf("time cost of SINR tuning vs original-in-its-model: %.1fx\n",
              rows[2].latency.mean() / rows[0].latency.mean());

  return bench::print_verdict(
      original_ok && naive_breaks && retuned_ok,
      "original works in its model, naive port breaks under SINR, re-tuned "
      "version is correct under SINR");
}
