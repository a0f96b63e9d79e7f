// X12 — robustness beyond the paper's model: stochastic channel fading.
// The paper's analysis assumes deterministic path loss. We measure (a) how
// much of Theorem 3's 100%-delivery TDMA guarantee survives log-normal
// shadowing and Rayleigh fading, and (b) whether the coloring protocol —
// whose windows already carry w.h.p. slack — still terminates with valid
// colorings under mild shadowing.
#include <cstdio>
#include <iostream>
#include <string>

#include "baseline/greedy_coloring.h"
#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "mac/tdma.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 250, 1));
  const auto seeds =
      static_cast<std::uint64_t>(cli.get_int_at_least("seeds", 3, 1));
  cli.reject_unknown();

  bench::print_experiment_header(
      "X12: fading robustness (beyond the paper's model)",
      "Theorem 3's TDMA guarantee and the coloring protocol under log-normal "
      "shadowing / Rayleigh fading");

  const auto phys = bench::phys_for_radius(1.0);
  const double d = phys.mac_distance_d();

  // (a) TDMA delivery vs channel model.
  common::Table mac_table({"channel", "delivery rate", "senders fully heard"});
  bool shapes_ok = true;
  {
    struct Channel {
      std::string name;
      sinr::FadingSpec spec;
    };
    std::vector<Channel> channels;
    channels.push_back({"deterministic (paper)", {}});
    for (double sigma : {2.0, 4.0, 6.0, 8.0}) {
      sinr::FadingSpec spec;
      spec.kind = sinr::FadingKind::kLogNormal;
      spec.sigma_db = sigma;
      char name[32];
      std::snprintf(name, sizeof name, "log-normal sigma=%.0f dB", sigma);
      channels.push_back({name, spec});
    }
    {
      sinr::FadingSpec spec;
      spec.kind = sinr::FadingKind::kRayleigh;
      channels.push_back({"Rayleigh", spec});
    }

    double last_lognormal_rate = 1.1;
    for (const auto& channel : channels) {
      common::Accumulator rate, full;
      for (std::uint64_t s = 0; s < seeds; ++s) {
        const auto g = bench::uniform_graph_with_density(n, 16.0, 27000 + s);
        const auto schedule = mac::TdmaSchedule::from_coloring(
            baseline::greedy_distance_d_coloring(g, d + 1.0));
        const auto audit =
            channel.spec.enabled()
                ? mac::audit_tdma_sinr_fading(g, phys, channel.spec, schedule, 4)
                : mac::audit_tdma_sinr(g, phys, schedule);
        rate.add(audit.delivery_rate());
        full.add(static_cast<double>(audit.senders_fully_heard) /
                 static_cast<double>(audit.senders_total));
      }
      mac_table.add_row({channel.name, common::Table::percent(rate.mean(), 2),
                         common::Table::percent(full.mean(), 1)});
      if (channel.name.find("log-normal") == 0) {
        shapes_ok &= rate.mean() < last_lognormal_rate;
        last_lognormal_rate = rate.mean();
      } else if (channel.name.find("deterministic") == 0) {
        shapes_ok &= rate.mean() == 1.0;
      }
    }
  }
  mac_table.print(std::cout);

  // (b) the coloring protocol under shadowing.
  common::Table proto_table({"channel", "all_decided", "valid_runs",
                             "violations", "avg_latency"});
  bool protocol_ok_mild = true;
  for (double sigma : {0.0, 1.0, 2.0, 4.0}) {
    std::size_t decided = 0, valid = 0, violations = 0;
    common::Accumulator latency;
    for (std::uint64_t s = 0; s < seeds; ++s) {
      const auto g = bench::uniform_graph_with_density(n, 14.0, 28000 + s);
      core::MwRunConfig cfg;
      cfg.seed = 53000 + s;
      if (sigma > 0.0) {
        cfg.fading.kind = sinr::FadingKind::kLogNormal;
        cfg.fading.sigma_db = sigma;
      }
      const auto r = core::run_mw_coloring(g, cfg);
      decided += r.metrics.all_decided;
      valid += r.coloring_valid;
      violations += r.independence_violations;
      latency.add(static_cast<double>(r.metrics.slots_executed));
    }
    char name[32];
    std::snprintf(name, sizeof name, "sigma=%.0f dB", sigma);
    char frac_a[16], frac_b[16];
    std::snprintf(frac_a, sizeof frac_a, "%zu/%llu", decided,
                  static_cast<unsigned long long>(seeds));
    std::snprintf(frac_b, sizeof frac_b, "%zu/%llu", valid,
                  static_cast<unsigned long long>(seeds));
    proto_table.add_row({name, frac_a, frac_b,
                         common::Table::integer(static_cast<long long>(violations)),
                         common::Table::num(latency.mean(), 0)});
    if (sigma <= 2.0) {
      protocol_ok_mild &= decided == seeds && valid == seeds;
    }
  }
  proto_table.print(std::cout);

  return bench::print_verdict(
      shapes_ok && protocol_ok_mild,
      "TDMA delivery degrades monotonically with shadowing; the protocol "
      "absorbs mild (<= 2 dB) shadowing with no loss of correctness");
}
