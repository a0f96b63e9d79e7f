// X7 — Corollary 1: any uniform point-to-point message-passing algorithm
// running in τ rounds can be simulated under SINR in O(Δ(log n + τ)) slots
// with identical outputs. For flooding/BFS, Luby-MIS and max-id gossip we
// (a) verify bit-identical outputs vs the ideal point-to-point execution and
// (b) account slots as coloring-setup + τ·V and compare against Δ(ln n + τ).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "baseline/greedy_coloring.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/table.h"
#include "graph/graph_algos.h"
#include "graph/independent_set.h"
#include "mac/algorithms.h"
#include "mac/distance_d.h"
#include "mac/simulation.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 2, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X7: single-round simulation of message-passing algorithms",
      "Corollary 1 — uniform algorithms simulate under SINR with identical "
      "outputs in O(Delta*(log n + tau)) slots");

  const auto phys = bench::phys_for_radius(1.0);
  const double d = phys.mac_distance_d();

  common::Table table({"algorithm", "n", "Delta", "tau", "V(frame)",
                       "sim slots", "Delta*(ln n+tau)", "ratio", "outputs"});
  bool all_equal = true;
  bool ratios_bounded = true;

  for (std::size_t n : {128UL, 256UL, 512UL}) {
    for (std::uint64_t s = 0; s < seeds; ++s) {
      // Flooding terminates only on connected instances; resample until
      // connected (flat-world densities occasionally strand a corner node).
      auto g = bench::uniform_graph_with_density(n, 12.0, 15000 + s);
      for (std::uint64_t retry = 1; !graph::is_connected(g) && retry < 20;
           ++retry) {
        g = bench::uniform_graph_with_density(n, 12.0, 15000 + s + 100 * retry);
      }
      const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
      const auto schedule = mac::TdmaSchedule::from_coloring(coloring);
      const double dln = static_cast<double>(g.max_degree());

      struct Algo {
        const char* name;
        mac::AlgorithmFactory factory;
      };
      const std::uint64_t luby_seed = 500 + s;
      const Algo algos[] = {
          {"flooding/bfs",
           [](graph::NodeId v, const graph::UnitDiskGraph&)
               -> std::unique_ptr<mac::UniformAlgorithm> {
             return std::make_unique<mac::FloodingBfs>(v, 0);
           }},
          {"luby-mis",
           [luby_seed](graph::NodeId v, const graph::UnitDiskGraph&)
               -> std::unique_ptr<mac::UniformAlgorithm> {
             return std::make_unique<mac::LubyMis>(v, luby_seed);
           }},
      };

      for (const auto& algo : algos) {
        auto ref_nodes = mac::instantiate(g, algo.factory);
        auto sim_nodes = mac::instantiate(g, algo.factory);
        const auto ref = mac::run_reference(g, ref_nodes, 600);
        const auto sim =
            mac::run_over_sinr_tdma(g, phys, schedule, sim_nodes, 600);

        bool equal = sim.missed_deliveries == 0 && ref.rounds == sim.rounds;
        if (std::string(algo.name) == "flooding/bfs") {
          for (graph::NodeId v = 0; v < g.size() && equal; ++v) {
            equal = static_cast<mac::FloodingBfs*>(ref_nodes[v].get())
                            ->distance() ==
                        static_cast<mac::FloodingBfs*>(sim_nodes[v].get())
                            ->distance() &&
                    static_cast<mac::FloodingBfs*>(ref_nodes[v].get())
                            ->parent() ==
                        static_cast<mac::FloodingBfs*>(sim_nodes[v].get())
                            ->parent();
          }
        } else {
          for (graph::NodeId v = 0; v < g.size() && equal; ++v) {
            equal = static_cast<mac::LubyMis*>(ref_nodes[v].get())->in_mis() ==
                    static_cast<mac::LubyMis*>(sim_nodes[v].get())->in_mis();
          }
        }
        all_equal &= equal;

        const double budget =
            dln * (std::log(static_cast<double>(n)) +
                   static_cast<double>(ref.rounds));
        const double ratio = static_cast<double>(sim.slots_used) / budget;
        ratios_bounded &= ratio < 40.0;  // constant-factor check
        table.add_row(
            {algo.name, common::Table::integer(static_cast<long long>(n)),
             common::Table::integer(static_cast<long long>(g.max_degree())),
             common::Table::integer(ref.rounds),
             common::Table::integer(schedule.frame_length()),
             common::Table::integer(static_cast<long long>(sim.slots_used)),
             common::Table::num(budget, 0), common::Table::num(ratio, 2),
             equal ? "identical" : "DIFFER"});
      }
    }
  }
  table.print(std::cout);
  std::printf("(ratio = simulated slots / Delta*(ln n + tau); Corollary 1 "
              "asserts it is bounded by a constant)\n");

  // --- General model (Corollary 1, second bullet): per-neighbor messages ---
  // via (i) bundling into one O(sΔ log n)-bit broadcast per round, or (ii)
  // sequential sub-frames with O(s log n)-bit messages (the O(Δ²τ) regime).
  common::Table general_table({"algorithm (general)", "n", "tau", "strategy",
                               "slots", "bundle factor", "outputs"});
  bool general_equal = true;
  for (std::size_t n : {128UL, 256UL}) {
    auto g = bench::uniform_graph_with_density(n, 12.0, 16000);
    const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
    const auto schedule = mac::TdmaSchedule::from_coloring(coloring);
    auto make = [](graph::NodeId v, const graph::UnitDiskGraph& graph)
        -> std::unique_ptr<mac::GeneralAlgorithm> {
      return std::make_unique<mac::RandomizedMatching>(v, graph, 31337);
    };
    auto ref_nodes = mac::instantiate_general(g, make);
    const auto ref = mac::run_reference_general(g, ref_nodes, 600);

    for (auto strategy :
         {mac::GeneralStrategy::kBundled, mac::GeneralStrategy::kSequential}) {
      auto sim_nodes = mac::instantiate_general(g, make);
      const auto sim = mac::run_general_over_sinr_tdma(g, phys, schedule,
                                                       sim_nodes, 600, strategy);
      bool equal = sim.missed_deliveries == 0;
      for (graph::NodeId v = 0; v < g.size() && equal; ++v) {
        equal = static_cast<mac::RandomizedMatching*>(ref_nodes[v].get())
                    ->partner() ==
                static_cast<mac::RandomizedMatching*>(sim_nodes[v].get())
                    ->partner();
      }
      general_equal &= equal;
      general_table.add_row(
          {"randomized matching",
           common::Table::integer(static_cast<long long>(n)),
           common::Table::integer(ref.rounds),
           strategy == mac::GeneralStrategy::kBundled ? "bundled" : "sequential",
           common::Table::integer(static_cast<long long>(sim.slots_used)),
           common::Table::integer(
               static_cast<long long>(sim.max_bundle_entries)),
           equal ? "identical" : "DIFFER"});
    }
  }
  general_table.print(std::cout);
  all_equal &= general_equal;

  return bench::print_verdict(
      all_equal && ratios_bounded,
      all_equal ? "all simulated outputs bit-identical; slot cost within a "
                  "constant of Delta*(ln n + tau)"
                : "some simulated output differed from the reference");
}
