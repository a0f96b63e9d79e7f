// X10 — ablation of the paper's parameter relations. Each row disables one
// structural relation the analysis relies on and measures what breaks:
//   (1) κ (window/probability coupling): windows too short for a q-sender to
//       be heard w.h.p. ⇒ Theorem-1 violations (Case 1 of the proof fails).
//   (2) q_s = q_ℓ/Δ scaling: constant q_s ⇒ per-disc probability mass grows
//       with Δ, Eq. 1 / Lemma 3 break ⇒ deliveries collapse, violations.
//   (3) σ > 2γ (threshold vs window): threshold inside the reset window ⇒
//       Case 2 of Theorem 1's proof fails.
// The defaults (first row) must be clean; each ablation should degrade.
//
// All four configurations run over the SAME topologies: trial s of every
// configuration deploys its graph from the same seed, and the builder is a
// pure function of its seed, so the ablation comparison is paired by
// construction. Trials run through common::SweepEngine (`--threads=N`);
// results are byte-identical for every thread count.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/sweep.h"
#include "common/table.h"
#include "core/mw_params.h"
#include "core/mw_protocol.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 300, 1));
  const std::size_t seeds = common::sweep_trials(cli, "seeds", 4);
  const auto base_seed = cli.get_seed("seed", 10);
  const std::size_t threads = common::sweep_threads(cli);
  cli.reject_unknown();

  bench::print_experiment_header(
      "X10: parameter ablations",
      "each paper relation, when broken, measurably degrades correctness; "
      "the default profile stays clean");

  common::Table table({"configuration", "violations", "invalid_runs",
                       "avg_latency", "note"});

  struct Outcome {
    std::size_t violations = 0;
    std::size_t invalid = 0;
    double latency = 0.0;
  };

  struct TrialOutcome {
    std::size_t violations = 0;
    bool invalid = false;
    double slots = 0.0;
  };

  common::SweepEngine engine(threads);

  auto run_with = [&](auto mutate) {
    const auto results = engine.run(
        seeds, base_seed, [&](const common::TrialContext& ctx) {
          // Same ctx.seed for trial s across all four configurations ⇒ same
          // graph per trial, paired ablations.
          const auto g = bench::uniform_graph_with_density(
              n, 16.0, common::derive_seed(ctx.seed, 0x67));
          core::MwConfig mw;
          mw.n = g.size();
          mw.max_degree = std::max<std::size_t>(g.max_degree(), 1);
          mw.phys = bench::phys_for_radius(g.radius());
          auto params = core::MwParams::practical(mw);
          mutate(params);

          core::MwRunConfig cfg;
          cfg.seed = common::derive_seed(ctx.seed, 0x70);  // 'p' — protocol
          cfg.params_override = params;
          const auto r = core::run_mw_coloring(g, cfg);
          TrialOutcome out;
          out.violations = r.independence_violations;
          out.invalid = !(r.coloring_valid && r.metrics.all_decided);
          out.slots = static_cast<double>(r.metrics.slots_executed);
          return out;
        });
    Outcome outcome;
    for (const TrialOutcome& t : results) {
      outcome.violations += t.violations;
      outcome.invalid += t.invalid ? 1 : 0;
      outcome.latency += t.slots / static_cast<double>(seeds);
    }
    return outcome;
  };

  auto add_row = [&](const char* name, const Outcome& o, const char* note) {
    table.add_row({name,
                   common::Table::integer(static_cast<long long>(o.violations)),
                   common::Table::integer(static_cast<long long>(o.invalid)),
                   common::Table::num(o.latency, 0), note});
  };

  const auto baseline_run = run_with([](core::MwParams&) {});
  add_row("default practical profile", baseline_run, "expected clean");

  // (1) Shrink the windows 8x without touching anything else: a C-beacon is
  // no longer heard within the window ⇒ Case-1 leaks.
  const auto short_windows = run_with([](core::MwParams& p) {
    p.window_zero = std::max<std::int64_t>(1, p.window_zero / 8);
    p.window_positive = std::max<std::int64_t>(1, p.window_positive / 8);
  });
  add_row("windows / 8 (breaks q*window=Omega(ln n))", short_windows,
          "expect violations");

  // (2) Constant q_s (no 1/Δ scaling): per-disc probability mass ~Δ·q.
  const auto constant_qs = run_with([](core::MwParams& p) {
    p.q_small = p.q_leader;  // every competitor as loud as a leader
  });
  add_row("q_s = q_l (breaks Eq.1 budget)", constant_qs,
          "expect violations/stalls");

  // (3) Threshold inside the window: σ·window ⇒ 0.8·window.
  const auto low_threshold = run_with([](core::MwParams& p) {
    p.counter_threshold = std::max<std::int64_t>(2, (p.window_positive * 4) / 5);
  });
  add_row("threshold = 0.8*window (breaks sigma>2*gamma)", low_threshold,
          "expect violations");

  table.print(std::cout);

  const bool clean_default =
      baseline_run.violations == 0 && baseline_run.invalid == 0;
  const std::size_t degraded =
      static_cast<std::size_t>(short_windows.violations + short_windows.invalid > 0) +
      static_cast<std::size_t>(constant_qs.violations + constant_qs.invalid > 0) +
      static_cast<std::size_t>(low_threshold.violations + low_threshold.invalid > 0);
  std::printf("ablations that degraded correctness: %zu/3\n", degraded);
  return bench::print_verdict(
      clean_default && degraded >= 2,
      "default profile clean; breaking the paper's relations visibly "
      "degrades correctness");
}
