// sinrcolor — command-line front end for the library.
//
//   sinrcolor_cli params   [--n=..] [--delta=..] [--alpha=..] [--beta=..]
//                          [--rho=..]
//   sinrcolor_cli color    [--n=..] [--side=..] [--seed=..] [--deployment=..]
//                          [--wakeup=sync|uniform] [--resolve=field|simd|naive]
//                          [--trials=.. [--threads=..]]
//                          [--faults=plan.json] [--json=out.json] [--quiet]
//   sinrcolor_cli sweep    [--n-list=64,128,..] [--trials=..] [--threads=..]
//                          [--avg-degree=..] [--seed=..] [--resolve=..]
//                          [--shared-topology] [--csv=out.csv] [--quiet]
//   sinrcolor_cli mac      [--n=..] [--side=..] [--seed=..]
//   sinrcolor_cli simulate [--n=..] [--side=..] [--seed=..] [--algorithm=..]
//   sinrcolor_cli recover  [--n=..] [--side=..] [--seed=..] [--deployment=..]
//                          [--fail-fraction=..] [--fail-window=..]
//                          [--join-fraction=..] [--join-at=..] [--join-window=..]
//                          [--retransmit-wait=..] [--retransmit-retries=..]
//                          [--degrade] [--faults=plan.json]
//                          [--resolve=field|simd|naive]
//                          [--json=out.json] [--quiet]
//   sinrcolor_cli trace record   [--scenario=color|recover] [graph flags]
//                                [--out=trace.jsonl] [--chrome=trace.json]
//                                [--json=report.json] [--capacity=..] [--quiet]
//   sinrcolor_cli trace query    [--in=trace.jsonl] [--node=..] [--kind=..]
//                                [--from=..] [--to=..] [--limit=..]
//   sinrcolor_cli trace digest   [--in=trace.jsonl] [--node=..]
//   sinrcolor_cli trace timeline [--in=trace.jsonl] [--interval=..]
//                                [--columns=..]
//
// `params` prints the theory and practical constants side by side for an
// instance size; `color` runs the distributed coloring (optionally exporting
// the full run as JSON) — `--trials=N` repeats it over N seed streams
// derived from --seed, executed concurrently by --threads with byte-
// identical output for every thread count; `sweep` runs a whole
// (size × trials) grid through the same engine and prints one deterministic
// row per size; `mac` builds the Theorem-3 TDMA schedule and audits
// it; `simulate` runs a message-passing algorithm over the simulated MAC;
// `recover` runs the self-healing protocol (src/robust) under crash-stop
// failures and/or dynamic joins and reports the recovery metrics; with
// `--faults=plan.json` (color/recover) a declarative fault plan
// (docs/ROBUSTNESS.md) is injected and the runtime invariant monitor
// reports conflicts and their repair; `trace`
// records a run as a structured event trace (src/obs) and analyzes recorded
// traces: filtered event queries, per-node lifecycle digests and the
// state-population timeline, all reconstructed purely from the trace file.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>

#include "baseline/greedy_coloring.h"
#include "common/alloc_counter.h"
#include "common/cli.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/sweep.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "core/timeline.h"
#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "faults/invariant_monitor.h"
#include "geometry/deployment.h"
#include "graph/graph_algos.h"
#include "mac/algorithms.h"
#include "mac/distance_d.h"
#include "mac/simulation.h"
#include "mac/tdma.h"
#include "obs/export.h"
#include "obs/observation.h"
#include "robust/recovery_protocol.h"

namespace {

using namespace sinrcolor;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sinrcolor_cli <params|color|sweep|mac|simulate|recover> "
               "[--flags]\n"
               "see the header of tools/sinrcolor_cli.cpp for details\n");
  std::exit(2);
}

graph::UnitDiskGraph build_graph(const common::Cli& cli) {
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 200, 1));
  const double side = cli.get_double_at_least("side", 5.0, 1e-9);
  const auto seed = cli.get_seed("seed", 1);
  const std::string kind = cli.get("deployment", "uniform");
  common::Rng rng(seed);
  geometry::Deployment dep;
  if (kind == "uniform") {
    dep = geometry::uniform_deployment(n, side, rng);
  } else if (kind == "clustered") {
    dep = geometry::clustered_deployment(n, side, 4, side / 5.0, rng);
  } else if (kind == "grid") {
    dep = geometry::grid_deployment(n, side, 0.2, rng);
  } else if (kind == "line") {
    dep = geometry::line_deployment(n, 0.8);
  } else {
    std::fprintf(stderr, "unknown --deployment=%s\n", kind.c_str());
    std::exit(2);
  }
  return {std::move(dep), cli.get_double_at_least("radius", 1.0, 1e-9)};
}

sinr::SinrParams phys_for(const graph::UnitDiskGraph& g) {
  return sinr::SinrParams{}.with_r_t(g.radius());
}

/// Crash-stop failures (--fail-fraction, --fail-window) and dynamic joins
/// (--join-fraction, --join-at, --join-window). Only the self-healing driver
/// (robust::RecoveryInstance) schedules joins, so with `joins` false a join
/// flag is a usage error rather than silently ignored.
void read_churn_flags(const common::Cli& cli, core::MwRunConfig& cfg,
                      bool joins) {
  cfg.failure_fraction = cli.get_fraction("fail-fraction", 0.0);
  cfg.failure_window = cli.get_int_at_least("fail-window", 0, 0);
  if (!joins) {
    for (const char* flag : {"join-fraction", "join-at", "join-window"}) {
      if (cli.has(flag)) {
        cli.usage_error(std::string("--") + flag +
                        " needs --scenario=recover (MwInstance schedules no "
                        "joins)");
      }
    }
    return;
  }
  cfg.recovery.join_fraction = cli.get_fraction("join-fraction", 0.0);
  cfg.recovery.join_at = cli.get_int_at_least("join-at", 0, 0);
  cfg.recovery.join_window = cli.get_int_at_least("join-window", 0, 0);
}

/// Loads --faults=<plan.json> when present; exits 2 with the parse /
/// validation error otherwise (a typo'd plan must not silently run clean).
std::optional<faults::FaultPlan> load_fault_plan(const common::Cli& cli,
                                                 const graph::UnitDiskGraph& g) {
  const std::string path = cli.get("faults", "");
  if (path.empty()) return std::nullopt;
  faults::FaultPlan plan;
  std::string error;
  if (!faults::FaultPlan::load(path, plan, &error)) {
    std::fprintf(stderr, "--faults: %s\n", error.c_str());
    std::exit(2);
  }
  const std::string problem = plan.validate(g.size(), g.deployment().points);
  if (!problem.empty()) {
    std::fprintf(stderr, "--faults: %s\n", problem.c_str());
    std::exit(2);
  }
  return plan;
}

/// Prints the fault-injection activity and the invariant monitor's verdict.
void print_fault_summary(const radio::RunMetrics& metrics,
                         const faults::FaultEngine& engine,
                         const faults::InvariantMonitor& monitor) {
  const auto inv = monitor.report();
  std::printf("faults: drops=%llu deaf_slots=%llu jammer_slots=%llu "
              "noisy_slots=%llu\n",
              static_cast<unsigned long long>(
                  metrics.fault_dropped_deliveries),
              static_cast<unsigned long long>(metrics.fault_deaf_slots),
              static_cast<unsigned long long>(engine.stats().jammer_slots),
              static_cast<unsigned long long>(engine.stats().noisy_slots));
  std::printf("invariants: conflicts=%zu repaired=%zu open=%zu "
              "tx_independence=%zu feasibility=%zu max_conflict_slots=%lld\n",
              inv.legality_violations, inv.conflicts_repaired,
              inv.open_conflicts, inv.tx_independence_violations,
              inv.feasibility_violations,
              static_cast<long long>(inv.max_conflict_duration));
}

int cmd_params(const common::Cli& cli) {
  core::MwConfig cfg;
  cfg.n = static_cast<std::size_t>(cli.get_int_at_least("n", 256, 1));
  cfg.max_degree =
      static_cast<std::size_t>(cli.get_int_at_least("delta", 16, 1));
  cfg.phys.alpha = cli.get_double("alpha", 4.0);
  cfg.phys.beta = cli.get_double("beta", 1.5);
  cfg.phys.rho = cli.get_double("rho", 1.5);
  cfg.phys.noise = 1e-6;
  cli.reject_unknown();
  if (const std::string problem = cfg.phys.violation(); !problem.empty()) {
    cli.usage_error(problem);
  }

  const auto theory = core::MwParams::theory(cfg);
  const auto practical = core::MwParams::practical(cfg);
  std::printf("physical layer: %s\n\n", cfg.phys.to_string().c_str());

  common::Table t({"constant", "theory (paper Sec. II)", "practical profile"});
  auto row = [&](const char* name, double a, double b) {
    t.add_row({name, common::Table::num(a, 4), common::Table::num(b, 4)});
  };
  row("q_leader", theory.q_leader, practical.q_leader);
  row("q_small", theory.q_small, practical.q_small);
  row("listen slots", static_cast<double>(theory.listen_slots),
      static_cast<double>(practical.listen_slots));
  row("counter threshold", static_cast<double>(theory.counter_threshold),
      static_cast<double>(practical.counter_threshold));
  row("window (class 0)", static_cast<double>(theory.window_zero),
      static_cast<double>(practical.window_zero));
  row("window (class i>0)", static_cast<double>(theory.window_positive),
      static_cast<double>(practical.window_positive));
  row("assign slots", static_cast<double>(theory.assign_slots),
      static_cast<double>(practical.assign_slots));
  row("palette bound", static_cast<double>(theory.palette_bound()),
      static_cast<double>(practical.palette_bound()));
  t.print(std::cout);
  std::printf(
      "\n(the theory column is what the w.h.p. proofs demand — about %.0e "
      "slots of listen phase alone; the practical profile preserves every "
      "structural relation at simulation-friendly constants)\n",
      static_cast<double>(theory.listen_slots));
  return 0;
}

// `color --trials=N`: N independent protocol runs over ONE graph, each with
// its own splitmix-derived seed stream (common::trial_seed), executed
// through the sweep engine. `--threads` runs that many trials at a time; the
// aggregate table and `--json` report are byte-identical for every thread
// count — wall time goes to stdout only.
int cmd_color_trials(const common::Cli& cli, const graph::UnitDiskGraph& g,
                     const core::MwRunConfig& base_cfg, std::size_t trials) {
  const std::size_t threads = common::sweep_threads(cli);
  const std::string json_path = cli.get("json", "");
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  const std::uint64_t base_seed = base_cfg.seed;

  struct Trial {
    std::size_t colors = 0;
    std::size_t leaders = 0;
    double max_latency = 0.0;
    double mean_latency = 0.0;
    bool valid = false;
    bool steady_alloc_free = false;
  };
  common::SweepEngine engine(threads);
  common::SweepTiming timing;
  const auto results = engine.run(
      trials, base_seed,
      [&](const common::TrialContext& ctx) {
        core::MwRunConfig cfg = base_cfg;
        cfg.seed = ctx.seed;
        const auto r = core::run_mw_coloring(g, cfg);
        Trial t;
        t.colors = r.palette;
        t.leaders = r.leaders.size();
        t.max_latency = static_cast<double>(r.metrics.max_decision_latency());
        t.mean_latency = r.metrics.mean_decision_latency();
        t.valid = r.coloring_valid && r.metrics.all_decided;
        t.steady_alloc_free = r.metrics.steady_state_alloc_free();
        return t;
      },
      &timing);

  common::Accumulator colors, leaders, max_lat, mean_lat;
  bool all_valid = true;
  bool all_alloc_free = true;
  for (const Trial& t : results) {
    colors.add(static_cast<double>(t.colors));
    leaders.add(static_cast<double>(t.leaders));
    max_lat.add(t.max_latency);
    mean_lat.add(t.mean_latency);
    all_valid &= t.valid;
    all_alloc_free &= t.steady_alloc_free;
  }
  if (!quiet) {
    std::printf("graph: n=%zu Delta=%zu avg_deg=%.1f\n", g.size(),
                g.max_degree(), g.average_degree());
    std::printf("trials: %zu (base seed %llu, derived streams)\n", trials,
                static_cast<unsigned long long>(base_seed));
    std::printf("colors: mean=%.1f [%.0f, %.0f]\n", colors.mean(),
                colors.min(), colors.max());
    std::printf("leaders: mean=%.1f  max_latency: mean=%.0f  "
                "mean_latency: mean=%.0f\n",
                leaders.mean(), max_lat.mean(), mean_lat.mean());
    std::printf("valid: %s  steady-state alloc-free: %s\n",
                all_valid ? "all" : "NO",
                all_alloc_free ? "yes" : "NO");
    std::printf("wall: %.1f ms total, per-trial p50 %.1f ms / p95 %.1f ms "
                "(%zu threads)\n",
                static_cast<double>(timing.total_us) / 1000.0,
                static_cast<double>(timing.p50_us()) / 1000.0,
                static_cast<double>(timing.p95_us()) / 1000.0, threads);
  }
  if (!json_path.empty()) {
    // Deterministic trial report: results only, no wall times.
    common::JsonWriter json;
    json.begin_object();
    json.field("n", g.size());
    json.field("trials", trials);
    json.field("base_seed", base_seed);
    json.key("runs");
    json.begin_array();
    for (const Trial& t : results) {
      json.begin_object();
      json.field("colors", t.colors);
      json.field("leaders", t.leaders);
      json.field("max_latency", t.max_latency);
      json.field("mean_latency", t.mean_latency);
      json.field("valid", t.valid);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::ofstream out(json_path);
    out << json.str() << '\n';
    if (!quiet) std::printf("report written to %s\n", json_path.c_str());
  }
  return all_valid ? 0 : 1;
}

int cmd_color(const common::Cli& cli) {
  const auto g = build_graph(cli);
  core::MwRunConfig cfg;
  cfg.seed = cli.get_seed("seed", 1);
  if (cli.get("wakeup", "sync") == "uniform") {
    cfg.wakeup = core::WakeupKind::kUniform;
    cfg.wakeup_window = cli.get_int_at_least("wakeup-window", 2000, 0);
  }
  cfg.resolve = core::resolve_kind_flag(cli);
  const std::size_t trials = common::sweep_trials(cli, "trials", 1);
  const auto plan = load_fault_plan(cli, g);
  if (trials > 1) {
    if (plan.has_value()) {
      std::fprintf(stderr, "--faults is incompatible with --trials > 1\n");
      std::exit(2);
    }
    return cmd_color_trials(cli, g, cfg, trials);
  }
  const std::string json_path = cli.get("json", "");
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  if (plan.has_value()) {
    // Fault-injected run: chaos engine + runtime invariant monitor. Crashed
    // nodes cannot decide, so the plain all-decided exit rule would punish
    // every crash plan — the verdict is the monitor's instead: every
    // coloring conflict the faults caused must have been repaired by the
    // end, and no color may exceed the palette bound.
    for (const faults::CrashEvent& c : plan->crashes) {
      if (c.restart != -1) {
        std::fprintf(stderr,
                     "--faults: crash restarts need the self-healing "
                     "protocol; use `recover`\n");
        std::exit(2);
      }
    }
    core::MwInstance instance(g, cfg);
    faults::FaultEngine engine(*plan, cfg.seed);
    engine.install(instance.simulator());
    faults::InvariantMonitor monitor(g, [&instance](graph::NodeId v) {
      return instance.nodes()[v]->final_color();
    });
    monitor.attach(instance.simulator());
    const auto result = instance.run();
    if (!quiet) {
      std::printf("graph: n=%zu Delta=%zu avg_deg=%.1f\n", g.size(),
                  g.max_degree(), g.average_degree());
      std::printf("params: %s\n", result.params.to_string().c_str());
      std::printf("result: %s\n", result.summary().c_str());
      print_fault_summary(result.metrics, engine, monitor);
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << core::to_json(result) << '\n';
      if (!quiet) std::printf("report written to %s\n", json_path.c_str());
    }
    const auto inv = monitor.report();
    return inv.open_conflicts == 0 && inv.feasibility_violations == 0 ? 0 : 1;
  }

  const auto result = core::run_mw_coloring(g, cfg);
  if (!quiet) {
    std::printf("graph: n=%zu Delta=%zu avg_deg=%.1f\n", g.size(),
                g.max_degree(), g.average_degree());
    std::printf("params: %s\n", result.params.to_string().c_str());
    std::printf("result: %s\n", result.summary().c_str());
    if (common::alloc_counting_enabled()) {
      std::printf("slot-loop allocs: %llu over %lld slots (last alloc in "
                  "slot %lld, steady-state %s)\n",
                  static_cast<unsigned long long>(
                      result.metrics.slot_heap_allocs),
                  static_cast<long long>(result.metrics.slots_executed),
                  static_cast<long long>(result.metrics.last_alloc_slot),
                  result.metrics.steady_state_alloc_free() ? "alloc-free"
                                                           : "ALLOCATING");
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << core::to_json(result) << '\n';
    if (!quiet) std::printf("report written to %s\n", json_path.c_str());
  }
  return result.coloring_valid && result.metrics.all_decided ? 0 : 1;
}

// `sweep`: a (size × trials) grid through the sweep engine — the CLI's
// front door to the same machinery the bench harnesses use. One
// deterministic row per size (byte-identical for every --threads value);
// wall times print separately. --shared-topology runs every trial of a size
// on ONE graph built before the sweep (protocol-variance view) instead of a
// fresh graph per trial (topology-variance view, the default).
int cmd_sweep(const common::Cli& cli) {
  const auto sizes = cli.get_count_list(
      "n-list", "64,128,256", std::numeric_limits<graph::NodeId>::max());
  const std::size_t trials = common::sweep_trials(cli, "trials", 4);
  const std::size_t threads = common::sweep_threads(cli);
  const double avg = cli.get_double_at_least("avg-degree", 10.0, 1e-9);
  const auto base_seed = cli.get_seed("seed", 1);
  const bool shared_topology = cli.get_bool("shared-topology", false);
  const std::string csv_path = cli.get("csv", "");
  const bool quiet = cli.get_bool("quiet", false);
  core::MwRunConfig base_cfg;
  base_cfg.resolve = core::resolve_kind_flag(cli);
  cli.reject_unknown();

  struct Trial {
    double colors = 0.0;
    double max_latency = 0.0;
    double delta = 0.0;
    bool valid = false;
  };
  const auto uniform_graph = [avg](std::size_t n, std::uint64_t graph_seed) {
    const double side = std::sqrt(static_cast<double>(n) * M_PI / avg);
    common::Rng rng(graph_seed);
    return graph::UnitDiskGraph(geometry::uniform_deployment(n, side, rng),
                                1.0);
  };

  common::SweepEngine engine(threads);
  common::Table table(
      {"n", "trials", "Delta", "colors", "max_latency", "valid"});
  bool all_valid = true;
  for (std::size_t n : sizes) {
    const std::uint64_t size_seed = common::derive_seed(base_seed, n);
    // Shared topology: one graph per size (seed from the size, not the
    // trial), built before the sweep and read by every trial. Default: a
    // fresh graph per trial from the trial's own stream.
    std::optional<graph::UnitDiskGraph> shared;
    if (shared_topology) {
      shared.emplace(uniform_graph(n, common::derive_seed(size_seed, 0x67)));
    }
    common::SweepTiming timing;
    const auto results = engine.run(
        trials, size_seed,
        [&](const common::TrialContext& ctx) {
          std::optional<graph::UnitDiskGraph> fresh;
          if (!shared) {
            fresh.emplace(uniform_graph(n, common::derive_seed(ctx.seed, 0x67)));
          }
          const graph::UnitDiskGraph& g = shared ? *shared : *fresh;
          core::MwRunConfig cfg = base_cfg;
          cfg.seed = ctx.seed;
          const auto r = core::run_mw_coloring(g, cfg);
          Trial t;
          t.colors = static_cast<double>(r.palette);
          t.max_latency =
              static_cast<double>(r.metrics.max_decision_latency());
          t.delta = static_cast<double>(g.max_degree());
          t.valid = r.coloring_valid && r.metrics.all_decided;
          return t;
        },
        &timing);
    common::Accumulator colors, max_lat, delta;
    for (const Trial& t : results) {
      colors.add(t.colors);
      max_lat.add(t.max_latency);
      delta.add(t.delta);
      all_valid &= t.valid;
    }
    table.add_row({common::Table::integer(static_cast<long long>(n)),
                   common::Table::integer(static_cast<long long>(trials)),
                   common::Table::num(delta.mean(), 1),
                   common::Table::num(colors.mean(), 1),
                   common::Table::num(max_lat.mean(), 0),
                   all_valid ? "yes" : "NO"});
    if (!quiet) {
      std::printf("n=%zu: %zu trials in %.1f ms (p50 %.1f / p95 %.1f ms per "
                  "trial, %zu threads)\n",
                  n, trials, static_cast<double>(timing.total_us) / 1000.0,
                  static_cast<double>(timing.p50_us()) / 1000.0,
                  static_cast<double>(timing.p95_us()) / 1000.0, threads);
    }
  }
  table.print(std::cout);
  if (!csv_path.empty() && table.write_csv(csv_path)) {
    if (!quiet) std::printf("rows written to %s\n", csv_path.c_str());
  }
  return all_valid ? 0 : 1;
}

int cmd_mac(const common::Cli& cli) {
  const auto g = build_graph(cli);
  const auto phys = phys_for(g);
  const double d = phys.mac_distance_d();
  cli.reject_unknown();

  const auto coloring = baseline::greedy_distance_d_coloring(g, d + 1.0);
  const auto schedule = mac::TdmaSchedule::from_coloring(coloring);
  const auto audit = mac::audit_tdma_sinr(g, phys, schedule);
  std::printf("d=%.3f, frame length V=%u\n", d, schedule.frame_length());
  std::printf("audit: %s\n", audit.summary().c_str());
  return audit.interference_free() ? 0 : 1;
}

int cmd_simulate(const common::Cli& cli) {
  const auto g = build_graph(cli);
  const auto phys = phys_for(g);
  const double d = phys.mac_distance_d();
  const std::string algorithm = cli.get("algorithm", "flooding");
  cli.reject_unknown();

  const auto schedule = mac::TdmaSchedule::from_coloring(
      baseline::greedy_distance_d_coloring(g, d + 1.0));

  if (algorithm == "flooding") {
    auto nodes = mac::instantiate(g, [](graph::NodeId v, const auto&) {
      return std::make_unique<mac::FloodingBfs>(v, 0);
    });
    const auto sim = mac::run_over_sinr_tdma(g, phys, schedule, nodes, 1000);
    const auto oracle = graph::bfs_distances(g, 0);
    std::size_t correct = 0, reachable = 0;
    for (graph::NodeId v = 0; v < g.size(); ++v) {
      if (oracle[v] == graph::kUnreachable) continue;
      ++reachable;
      correct += static_cast<mac::FloodingBfs*>(nodes[v].get())->distance() ==
                 oracle[v];
    }
    std::printf("flooding over SINR TDMA: %s\n", sim.summary().c_str());
    std::printf("%zu/%zu reachable nodes at oracle distance\n", correct,
                reachable);
    return correct == reachable ? 0 : 1;
  }
  if (algorithm == "luby") {
    auto nodes = mac::instantiate(g, [](graph::NodeId v, const auto&) {
      return std::make_unique<mac::LubyMis>(v, 424242);
    });
    const auto sim = mac::run_over_sinr_tdma(g, phys, schedule, nodes, 1000);
    std::size_t mis = 0;
    for (const auto& node : nodes) {
      mis += static_cast<mac::LubyMis*>(node.get())->in_mis();
    }
    std::printf("luby-mis over SINR TDMA: %s\n", sim.summary().c_str());
    std::printf("MIS size: %zu\n", mis);
    return sim.all_terminated ? 0 : 1;
  }
  std::fprintf(stderr, "unknown --algorithm=%s (flooding|luby)\n",
               algorithm.c_str());
  return 2;
}

int cmd_recover(const common::Cli& cli) {
  const auto g = build_graph(cli);
  core::MwRunConfig cfg;
  cfg.seed = cli.get_seed("seed", 1);
  cfg.recovery.enabled = true;
  read_churn_flags(cli, cfg, /*joins=*/true);
  // Robustness hardening knobs (docs/ROBUSTNESS.md): bounded request
  // retransmission and graceful degradation to a provisional color.
  cfg.recovery.retransmit.initial_wait =
      cli.get_int_at_least("retransmit-wait", 0, 0);
  cfg.recovery.retransmit.max_retries = static_cast<std::size_t>(
      cli.get_int_at_least("retransmit-retries", 6, 0));
  cfg.recovery.degrade_to_provisional = cli.get_bool("degrade", false);
  cfg.resolve = core::resolve_kind_flag(cli);
  const auto plan = load_fault_plan(cli, g);
  const std::string json_path = cli.get("json", "");
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  robust::RecoveryInstance instance(g, cfg);
  std::optional<faults::FaultEngine> engine;
  std::optional<faults::InvariantMonitor> monitor;
  if (plan.has_value()) {
    engine.emplace(*plan, cfg.seed);
    engine->install(instance.simulator());
    monitor.emplace(g, [&instance](graph::NodeId v) {
      return instance.nodes()[v]->final_color();
    });
    monitor->attach(instance.simulator());
  }
  const auto result = instance.run();
  if (!quiet) {
    std::printf("graph: n=%zu Delta=%zu avg_deg=%.1f\n", g.size(),
                g.max_degree(), g.average_degree());
    std::printf("params: %s\n", result.params.to_string().c_str());
    std::printf("recovery: %s\n", cfg.recovery.to_string().c_str());
    std::printf("result: %s\n", result.summary().c_str());
    std::printf("healing: %s\n", result.recovery.summary().c_str());
    if (engine.has_value()) {
      print_fault_summary(result.metrics, *engine, *monitor);
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << core::to_json(result) << '\n';
    if (!quiet) std::printf("report written to %s\n", json_path.c_str());
  }
  // Success = the LIVE coloring is valid and no survivor stalled (a corpse
  // cannot decide; result.metrics.all_decided would punish it unfairly).
  // Under a fault plan the invariant monitor's verdict joins the gate:
  // every conflict the faults caused must have been repaired by the end.
  bool ok = result.coloring_valid && result.metrics.stalled_nodes == 0;
  if (monitor.has_value()) {
    const auto inv = monitor->report();
    ok = ok && inv.open_conflicts == 0 && inv.feasibility_violations == 0;
  }
  return ok ? 0 : 1;
}

// --- trace subcommand -------------------------------------------------------

int trace_record(const common::Cli& cli) {
  const auto g = build_graph(cli);
  core::MwRunConfig cfg;
  cfg.seed = cli.get_seed("seed", 1);
  if (cli.get("wakeup", "sync") == "uniform") {
    cfg.wakeup = core::WakeupKind::kUniform;
    cfg.wakeup_window = cli.get_int_at_least("wakeup-window", 2000, 0);
  }
  const std::string scenario = cli.get("scenario", "color");
  if (scenario != "color" && scenario != "recover") {
    cli.usage_error("unknown --scenario=" + scenario + " (color|recover)");
  }
  read_churn_flags(cli, cfg, /*joins=*/scenario == "recover");
  cfg.resolve = core::resolve_kind_flag(cli);
  const std::string out_path = cli.get("out", "trace.jsonl");
  const std::string chrome_path = cli.get("chrome", "");
  const std::string json_path = cli.get("json", "");
  const auto capacity =
      static_cast<std::size_t>(cli.get_int_at_least("capacity", 1 << 20, 1));
  const bool quiet = cli.get_bool("quiet", false);
  cli.reject_unknown();

  obs::RunObservation observation(capacity);
  const auto run_traced = [&]() -> core::MwRunResult {
    if (scenario == "recover") {
      cfg.recovery.enabled = true;
      robust::RecoveryInstance instance(g, cfg);
      instance.attach_observation(&observation);
      return instance.run();
    }
    core::MwInstance instance(g, cfg);
    instance.attach_observation(&observation);
    return instance.run();
  };
  const auto result = run_traced();

  obs::TraceMeta meta;
  meta.node_count = g.size();
  meta.seed = cfg.seed;
  meta.scenario = scenario;
  meta.recorded = observation.trace.recorded();
  meta.dropped = observation.trace.dropped();
  const auto events = observation.trace.events();
  {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    obs::write_jsonl(meta, events, out);
  }
  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", chrome_path.c_str());
      return 2;
    }
    obs::write_chrome_trace(meta, events, out);
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << core::to_json(result, observation, true) << '\n';
  }
  if (!quiet) {
    std::printf("graph: n=%zu Delta=%zu avg_deg=%.1f\n", g.size(),
                g.max_degree(), g.average_degree());
    std::printf("result: %s\n", result.summary().c_str());
    std::printf("trace: %llu events recorded, %llu dropped -> %s\n",
                static_cast<unsigned long long>(meta.recorded),
                static_cast<unsigned long long>(meta.dropped),
                out_path.c_str());
    if (!chrome_path.empty()) {
      std::printf("chrome trace (chrome://tracing, ui.perfetto.dev): %s\n",
                  chrome_path.c_str());
    }
    if (!json_path.empty()) {
      std::printf("report with observability summary: %s\n",
                  json_path.c_str());
    }
  }
  return result.coloring_valid && result.metrics.stalled_nodes == 0 ? 0 : 1;
}

/// Loads --in (default trace.jsonl); exits with an error message on failure.
void load_trace(const common::Cli& cli, obs::TraceMeta& meta,
                std::vector<obs::TraceEvent>& events) {
  const std::string in_path = cli.get("in", "trace.jsonl");
  std::ifstream in(in_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", in_path.c_str());
    std::exit(2);
  }
  std::string error;
  if (!obs::read_jsonl(in, meta, events, &error)) {
    std::fprintf(stderr, "%s: %s\n", in_path.c_str(), error.c_str());
    std::exit(2);
  }
}

int trace_query(const common::Cli& cli) {
  obs::TraceMeta meta;
  std::vector<obs::TraceEvent> events;
  load_trace(cli, meta, events);
  const std::int64_t node = cli.get_int("node", -1);
  const std::string kind_name = cli.get("kind", "");
  const std::int64_t from = cli.get_int("from", 0);
  const std::int64_t to = cli.get_int("to", -1);
  const auto limit = cli.get_int("limit", 0);  // 0 = unlimited
  cli.reject_unknown();

  obs::EventKind kind_filter = obs::EventKind::kWake;
  const bool has_kind = !kind_name.empty();
  if (has_kind && !obs::event_kind_from_string(kind_name, kind_filter)) {
    std::fprintf(stderr, "unknown --kind=%s\n", kind_name.c_str());
    return 2;
  }

  std::int64_t shown = 0;
  for (const obs::TraceEvent& e : events) {
    if (node >= 0 && e.node != static_cast<obs::NodeId>(node)) continue;
    if (has_kind && e.kind != kind_filter) continue;
    if (e.slot < from || (to >= 0 && e.slot > to)) continue;
    std::printf("slot=%-8lld %-22s node=%u", static_cast<long long>(e.slot),
                obs::to_string(e.kind), e.node);
    if (e.peer != obs::kNoNode) std::printf(" peer=%u", e.peer);
    switch (e.kind) {
      case obs::EventKind::kMwTransition:
        std::printf(" %s->%s", obs::mw_state_name(e.a),
                    obs::mw_state_name(e.b));
        break;
      case obs::EventKind::kJoinTransition:
        std::printf(" %s->%s", obs::join_phase_name(e.a),
                    obs::join_phase_name(e.b));
        break;
      case obs::EventKind::kColorFinalized:
      case obs::EventKind::kIndependenceViolation:
        std::printf(" color=%lld", static_cast<long long>(e.b));
        break;
      default:
        if (e.a != 0 || e.b != 0) {
          std::printf(" a=%d b=%lld", e.a, static_cast<long long>(e.b));
        }
        break;
    }
    std::printf("\n");
    if (limit > 0 && ++shown >= limit) break;
  }
  return 0;
}

int trace_digest(const common::Cli& cli) {
  obs::TraceMeta meta;
  std::vector<obs::TraceEvent> events;
  load_trace(cli, meta, events);
  const std::int64_t node = cli.get_int("node", -1);
  cli.reject_unknown();

  std::printf("trace: scenario=%s n=%llu seed=%llu events=%zu dropped=%llu\n",
              meta.scenario.c_str(),
              static_cast<unsigned long long>(meta.node_count),
              static_cast<unsigned long long>(meta.seed), events.size(),
              static_cast<unsigned long long>(meta.dropped));
  const auto digest =
      obs::build_digest(events, static_cast<std::size_t>(meta.node_count));
  std::fputs(obs::render_digest(digest, node).c_str(), stdout);
  // The table ends at the last node any event names.
  const std::uint64_t rows = digest.size();
  if (rows < meta.node_count &&
      (node < 0 || static_cast<std::uint64_t>(node) >= rows)) {
    std::printf("nodes %llu..%llu (%llu): no events\n",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(meta.node_count - 1),
                static_cast<unsigned long long>(meta.node_count - rows));
  }
  return 0;
}

int trace_timeline(const common::Cli& cli) {
  const auto columns =
      static_cast<std::size_t>(cli.get_int_at_least("columns", 72, 1));
  radio::Slot interval = cli.get_int("interval", 0);
  obs::TraceMeta meta;
  std::vector<obs::TraceEvent> events;
  load_trace(cli, meta, events);
  cli.reject_unknown();

  if (interval <= 0) {
    const radio::Slot last = events.empty() ? 0 : events.back().slot;
    interval = std::max<radio::Slot>(
        1, last / static_cast<radio::Slot>(columns));
  }
  const auto timeline = core::timeline_from_trace(
      events, static_cast<std::size_t>(meta.node_count), interval);
  std::fputs(timeline.render_ascii(columns).c_str(), stdout);
  const radio::Slot half = timeline.decided_fraction_slot(0.5);
  const radio::Slot all = timeline.decided_fraction_slot(1.0);
  std::printf("50%% decided by slot %lld, 100%% by %lld (-1 = not reached)\n",
              static_cast<long long>(half), static_cast<long long>(all));
  return 0;
}

int cmd_trace(int argc, char** argv) {
  // trace <mode> [--flags]; the mode may be omitted only for usage errors.
  if (argc < 3 || argv[2][0] == '-') usage();
  const std::string mode = argv[2];
  const common::Cli cli(argc - 2, argv + 2);
  if (mode == "record") return trace_record(cli);
  if (mode == "query") return trace_query(cli);
  if (mode == "digest") return trace_digest(cli);
  if (mode == "timeline") return trace_timeline(cli);
  std::fprintf(stderr, "unknown trace mode '%s' (record|query|digest|timeline)\n",
               mode.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "trace") return cmd_trace(argc, argv);
  const common::Cli cli(argc - 1, argv + 1);
  if (command == "params") return cmd_params(cli);
  if (command == "color") return cmd_color(cli);
  if (command == "sweep") return cmd_sweep(cli);
  if (command == "mac") return cmd_mac(cli);
  if (command == "simulate") return cmd_simulate(cli);
  if (command == "recover") return cmd_recover(cli);
  usage();
}
