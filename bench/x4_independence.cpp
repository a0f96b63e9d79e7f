// X4 — Theorem 1: every color class C_i forms an independent set throughout
// the execution, w.h.p. The driver performs an incremental online check every
// slot (a violation can only appear the instant a node finalizes a color);
// across many seeds, topologies and wake-up patterns the count must be zero.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 200, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 4, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X4: online independence of the color classes",
      "Theorem 1 — at every time slot, each class C_i is an independent set "
      "(checked incrementally every slot of every run; expect 0 violations)");

  struct Scenario {
    const char* name;
    core::WakeupKind wakeup;
  };
  const Scenario scenarios[] = {
      {"uniform/simultaneous", core::WakeupKind::kSimultaneous},
      {"uniform/async-window", core::WakeupKind::kUniform},
      {"clustered/simultaneous", core::WakeupKind::kSimultaneous},
      {"clustered/async-window", core::WakeupKind::kUniform},
  };

  common::Table table({"scenario", "runs", "Delta(max)", "violations",
                       "invalid_runs", "slots(max)"});
  std::size_t total_violations = 0;
  std::size_t invalid_runs = 0;

  for (const auto& scenario : scenarios) {
    const bool clustered = std::string(scenario.name).find("clustered") == 0;
    std::size_t violations = 0, invalid = 0, delta_max = 0;
    long long slots_max = 0;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      common::Rng rng(4000 + s);
      geometry::Deployment dep =
          clustered ? geometry::clustered_deployment(n, 5.0, 4, 1.0, rng)
                    : geometry::uniform_deployment(n, 5.0, rng);
      graph::UnitDiskGraph g(std::move(dep), 1.0);
      core::MwRunConfig cfg;
      cfg.seed = 11000 + s;
      cfg.wakeup = scenario.wakeup;
      cfg.wakeup_window = 3000;
      const auto r = core::run_mw_coloring(g, cfg);
      violations += r.independence_violations;
      invalid += (r.coloring_valid && r.metrics.all_decided) ? 0 : 1;
      delta_max = std::max(delta_max, g.max_degree());
      slots_max = std::max(slots_max,
                           static_cast<long long>(r.metrics.slots_executed));
    }
    total_violations += violations;
    invalid_runs += invalid;
    table.add_row({scenario.name,
                   common::Table::integer(static_cast<long long>(seeds)),
                   common::Table::integer(static_cast<long long>(delta_max)),
                   common::Table::integer(static_cast<long long>(violations)),
                   common::Table::integer(static_cast<long long>(invalid)),
                   common::Table::integer(slots_max)});
  }
  table.print(std::cout);

  return bench::print_verdict(
      total_violations == 0 && invalid_runs == 0,
      "0 independence violations across all runs and wake-up patterns");
}
