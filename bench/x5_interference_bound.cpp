// X5 — Lemma 3: the probabilistic far interference is bounded.
//
// The proof's ring decomposition actually yields, for any exclusion radius
// r ≥ R_T and per-B_v probability mass ≤ 2 (Eq. 1):
//     Ψ_u^{v∉disc(r)} ≤ 48·P·((α−1)/(α−2))·r^{2−α}/R_T²        (*)
// and instantiating r = R_I makes (*) ≤ P/(2ρβR_T^α), the Lemma-3 constant.
//
// Part A probes (*) during live protocol runs at several radii (the worlds
// are smaller than R_I, so the generalized bound is the informative one) and
// checks the r^{2−α} decay shape. Part B builds a world LARGER than R_I with
// the paper's exact theory probabilities (leaders = greedy MIS at q_ℓ,
// everyone else at q_s) and verifies the Lemma-3 bound itself.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "geometry/deployment.h"
#include "graph/independent_set.h"
#include "graph/packing.h"
#include "sinr/probes.h"

namespace {

double ring_bound(const sinrcolor::sinr::SinrParams& phys, double r) {
  return 48.0 * phys.power * (phys.alpha - 1.0) / (phys.alpha - 2.0) *
         std::pow(r, 2.0 - phys.alpha) / (phys.r_t() * phys.r_t());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 250, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 2, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X5: Lemma 3 far-interference bound",
      "Psi_u outside radius r obeys the ring bound 48P((a-1)/(a-2))r^(2-a)/"
      "R_T^2; at r=R_I this is the Lemma-3 constant P/(2*rho*beta*R_T^a)");

  const auto phys = bench::phys_for_radius(1.0);
  const double r_i = phys.r_i();
  std::printf("R_T=%.1f R_I=%.1f Lemma-3 bound=%.4g ring bound at R_I=%.4g\n",
              phys.r_t(), r_i, phys.lemma3_interference_bound(),
              ring_bound(phys, r_i));

  // --- Part A: live protocol runs, radius sweep. ---
  const double radii[] = {2.0, 4.0, 8.0};
  common::Table table({"radius r", "ring bound", "max_Psi", "mean_Psi",
                       "max/bound", "violations", "samples"});
  bool ok = true;
  std::vector<double> log_r, log_psi;
  {
    struct Agg {
      sinr::BoundProbe probe;
      explicit Agg(double b) : probe(b) {}
    };
    std::vector<sinr::BoundProbe> probes;
    for (double r : radii) probes.emplace_back(ring_bound(phys, r));

    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 14.0, 6000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 13000 + s;
      core::MwInstance instance(g, cfg);
      const auto& nodes = instance.nodes();
      std::vector<double> probs(g.size(), 0.0);
      const auto& positions = g.deployment().points;
      instance.simulator().add_observer(
          [&](radio::Slot slot, std::span<const radio::TxRecord>) {
            if (slot % 64 != 0) return;
            for (std::size_t v = 0; v < nodes.size(); ++v) {
              probs[v] = nodes[v]->tx_probability();
            }
            for (graph::NodeId u = 0; u < g.size(); u += 13) {
              for (std::size_t k = 0; k < probes.size(); ++k) {
                probes[k].record(sinr::probabilistic_interference_outside(
                    phys, g.position(u), positions, probs, radii[k], u));
              }
            }
          });
      const auto r = instance.run();
      ok &= r.metrics.all_decided;
    }
    for (std::size_t k = 0; k < probes.size(); ++k) {
      ok &= probes[k].violations() == 0;
      table.add_row(
          {common::Table::num(radii[k], 1),
           common::Table::num(probes[k].bound(), 6),
           common::Table::num(probes[k].max_observed(), 6),
           common::Table::num(probes[k].mean_observed(), 6),
           common::Table::num(probes[k].worst_ratio(), 4),
           common::Table::integer(static_cast<long long>(probes[k].violations())),
           common::Table::integer(static_cast<long long>(probes[k].samples()))});
      if (probes[k].mean_observed() > 0.0) {
        log_r.push_back(std::log(radii[k]));
        log_psi.push_back(std::log(probes[k].mean_observed()));
      }
    }
  }
  table.print(std::cout);

  const auto fit = common::fit_linear(log_r, log_psi);
  std::printf("decay exponent of mean Psi vs r: %.2f (theory: %.1f = 2-alpha)\n",
              fit.slope, 2.0 - phys.alpha);
  const bool decay_ok = fit.slope < -(phys.alpha - 2.0) * 0.5;

  // --- Part B: world larger than R_I, the paper's exact probabilities. ---
  {
    const double side = 2.2 * r_i;
    const auto count = static_cast<std::size_t>(side * side * 14.0 / M_PI);
    common::Rng rng(424242);
    graph::UnitDiskGraph g(geometry::uniform_deployment(count, side, rng), 1.0);
    const double phi_ri_rt = graph::phi_upper_bound(r_i + 1.0, 1.0);
    const double q_l = 1.0 / phi_ri_rt;
    const double q_s = q_l / static_cast<double>(g.max_degree());
    std::vector<double> probs(g.size(), q_s);
    for (graph::NodeId v : graph::greedy_mis(g)) probs[v] = q_l;

    sinr::BoundProbe probe(phys.lemma3_interference_bound());
    std::size_t sampled = 0;
    for (graph::NodeId u = 0; u < g.size() && sampled < 200; ++u) {
      // Central nodes only: their I_u discs extend past the world edge the
      // least, making them the adversarial samples.
      const auto& p = g.position(u);
      if (std::abs(p.x - side / 2) > side / 4 ||
          std::abs(p.y - side / 2) > side / 4) {
        continue;
      }
      ++sampled;
      probe.record(sinr::probabilistic_interference_outside(
          phys, p, g.deployment().points, probs, r_i, u));
    }
    std::printf(
        "Part B (side=%.0f > R_I, n=%zu, Delta=%zu, theory q_l=%.4g q_s=%.3g): "
        "samples=%zu max/bound=%.6f violations=%zu\n",
        side, g.size(), g.max_degree(), q_l, q_s, probe.samples(),
        probe.worst_ratio(), probe.violations());
    ok &= probe.violations() == 0 && probe.samples() > 0;
  }

  return bench::print_verdict(
      ok && decay_ok,
      "far interference below the ring/Lemma-3 bounds everywhere, with the "
      "predicted r^(2-alpha) decay");
}
