// X19 — chaos harness: the self-healing protocol under declarative fault
// plans (src/faults), judged by the runtime invariant monitor.
//
// For each medium (sinr | sinr+fading | graph) and each fault intensity x,
// every trial runs the recovery protocol against a plan scaled by x: one
// crash + restart, per-link message drops with probability x, a noise burst
// (factor 1 + x) and a light duty-cycled jammer of power x near the middle
// of the deployment. The InvariantMonitor watches coloring legality,
// on-air independence and conflict EPISODES the whole time; the harness
// reports recovery latency (restart → decision), the delivery-drop curve
// vs x, and a conflict-duration histogram.
//
// The claim gated by the verdict:
//   * the x = 0 control rows are invariant-clean on every medium (the
//     monitor itself never fires on a fault-free run), and
//   * with faults enabled, every conflict the faults provoke is repaired
//     before the run ends (no open episodes), the live coloring is valid,
//     nobody stalls, and the measured drop rate grows with x.
//
// Trials run through common::SweepEngine (`--threads=N` trials at a time)
// and all fault randomness is a pure hash of (plan, seed, slot, link), so
// the table, the CSV and the payload of the BENCH_chaos.json baseline
// (--chaos-out=PATH) are identical for every --threads value — CI compares
// the envelope payloads of --threads=1 vs =4 (the envelope's `threads`
// field, the trial width, legitimately differs). Wall time never reaches
// any compared artifact.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/sweep.h"
#include "common/table.h"
#include "core/mw_protocol.h"
#include "core/verify.h"
#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "faults/invariant_monitor.h"
#include "robust/recovery_protocol.h"

namespace {

using namespace sinrcolor;

struct Medium {
  const char* name;
  bool graph_model;
  bool fading;
};

constexpr Medium kMedia[] = {
    {"sinr", false, false},
    {"sinr+fading", false, true},
    {"graph", true, false},
};

constexpr double kIntensities[] = {0.0, 0.1, 0.25, 0.4};

/// Conflict-duration histogram buckets (slots from onset to repair).
constexpr radio::Slot kDurationEdges[] = {8, 64, 512};
constexpr std::size_t kDurationBuckets = 4;  // (0,8] (8,64] (64,512] >512

using CheckRange = faults::InvariantMonitor::Report::CheckRange;
constexpr std::size_t kCheckCount = faults::InvariantMonitor::kCheckCount;

/// Union of two firing ranges: counts add, the slot window widens.
void merge_range(CheckRange& into, const CheckRange& from) {
  if (from.count == 0) return;
  into.count += from.count;
  if (into.first_slot < 0 || from.first_slot < into.first_slot) {
    into.first_slot = from.first_slot;
  }
  into.last_slot = std::max(into.last_slot, from.last_slot);
}

// Results only — no wall time, so merged rows are a pure function of
// (base seed, trial index).
struct TrialResult {
  double drop_rate = 0.0;        ///< fault drops / resolvable deliveries
  std::uint64_t dropped = 0;
  std::size_t conflicts = 0;     ///< legality episodes opened
  std::size_t repaired = 0;
  std::size_t open = 0;          ///< episodes still open at run end
  radio::Slot max_duration = 0;
  std::size_t duration_hist[kDurationBuckets] = {0, 0, 0, 0};
  radio::Slot rejoin_latency = -1;  ///< restart → decision of the victim
  std::size_t stalled = 0;
  bool live_valid = false;
  bool monitor_clean = false;
  CheckRange checks[kCheckCount];  ///< per-check firing details
  CheckRange open_range;           ///< onset range of still-open episodes
};

struct Aggregate {
  common::Accumulator drop_rate, rejoin;
  std::size_t conflicts = 0, repaired = 0, open = 0, stalled = 0;
  radio::Slot max_duration = 0;
  std::size_t duration_hist[kDurationBuckets] = {0, 0, 0, 0};
  bool all_live_valid = true;
  bool all_clean = true;
  CheckRange checks[kCheckCount];
  CheckRange open_range;

  void add(const TrialResult& t) {
    drop_rate.add(t.drop_rate);
    if (t.rejoin_latency >= 0) rejoin.add(static_cast<double>(t.rejoin_latency));
    conflicts += t.conflicts;
    repaired += t.repaired;
    open += t.open;
    stalled += t.stalled;
    max_duration = std::max(max_duration, t.max_duration);
    for (std::size_t b = 0; b < kDurationBuckets; ++b) {
      duration_hist[b] += t.duration_hist[b];
    }
    all_live_valid &= t.live_valid;
    all_clean &= t.monitor_clean;
    for (std::size_t c = 0; c < kCheckCount; ++c) {
      merge_range(checks[c], t.checks[c]);
    }
    merge_range(open_range, t.open_range);
  }
};

std::size_t duration_bucket(radio::Slot d) {
  for (std::size_t b = 0; b < kDurationBuckets - 1; ++b) {
    if (d <= kDurationEdges[b]) return b;
  }
  return kDurationBuckets - 1;
}

/// The fault plan of one trial: intensity 0 is the fault-free control.
faults::FaultPlan make_plan(double intensity, std::size_t n,
                            const core::MwParams& params, double side,
                            std::uint64_t trial_seed) {
  faults::FaultPlan plan;
  if (intensity <= 0.0) return plan;
  const auto listen_end = static_cast<radio::Slot>(params.listen_slots);
  const auto wp = static_cast<radio::Slot>(params.window_positive);

  // One crash + restart; the victim derives from the trial seed alone.
  const auto victim = static_cast<graph::NodeId>(
      common::derive_seed(trial_seed, 0xc4a5) % n);
  const radio::Slot crash = listen_end + 2 * wp;
  plan.crashes.push_back({victim, crash, crash + 4 * wp});

  // Per-link loss over the whole active phase (nothing is on the air during
  // the listen phase, so the window starts where traffic starts).
  plan.drops.push_back({listen_end, -1, intensity});

  // Noise burst around the crash and a light duty-cycled jammer near the
  // middle of the deployment (offset so it cannot coincide with a node).
  plan.noise.push_back({crash, crash + 2 * wp, 1.0 + intensity});
  faults::JammerSpec jammer;
  jammer.position = {side * 0.5 + 0.0137, side * 0.5 + 0.0071};
  jammer.from = listen_end;
  jammer.to = crash + 2 * wp;
  jammer.power = intensity;
  jammer.period = 4;
  jammer.duty = 1;
  jammer.radius = 0.5;  // graph medium: blanks listeners within 0.5
  plan.jammers.push_back(jammer);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 60, 2));
  const double avg = cli.get_double_at_least("avg-degree", 12.0, 1.0);
  const auto seeds =
      static_cast<std::size_t>(cli.get_int_at_least("seeds", 2, 1));
  const auto base_seed = cli.get_seed("seed", 19);
  const std::string csv_path = cli.get("csv", "");
  const std::string chaos_path = cli.get("chaos-out", "");
  const std::size_t sweep = bench::sweep_threads(cli);
  core::MwRunConfig base_cfg;
  base_cfg.resolve = core::resolve_kind_flag(cli);
  bench::MetricsSidecar sidecar(cli);
  cli.reject_unknown();

  bench::print_experiment_header(
      "X19: chaos — fault plans vs the self-healing protocol",
      "fault-free control runs are invariant-clean; under injected crashes, "
      "drops, noise and jamming every conflict is repaired in bounded time "
      "and the live coloring stays valid on all three media");

  base_cfg.recovery.enabled = true;
  base_cfg.recovery.retransmit.initial_wait = 40;  // request-path hardening

  common::SweepEngine engine(sweep == 1 || sidecar.observation() == nullptr
                                 ? sweep
                                 : 1);
  if (engine.thread_count() != sweep) {
    std::printf("note: --metrics-out forces --threads=1 (shared "
                "observation is single-threaded)\n");
  }
  sidecar.set_threads(engine.thread_count());

  const double side = std::sqrt(static_cast<double>(n) * M_PI / avg);
  const auto run_trial = [&](const Medium& medium, double intensity,
                             const common::TrialContext& ctx) -> TrialResult {
    const auto g = bench::uniform_graph_with_density(
        n, avg, common::derive_seed(ctx.seed, 0x67));
    core::MwRunConfig cfg = base_cfg;
    cfg.seed = ctx.seed;
    cfg.graph_model = medium.graph_model;
    if (medium.fading) cfg.fading.kind = sinr::FadingKind::kLogNormal;
    const auto params = core::derive_mw_params(g, cfg);
    // Faulted runs converge later than the clean bound; give them headroom.
    cfg.max_slots = 2 * params.recommended_max_slots();
    // Post-decision air time: a conflict opened by the LAST decision still
    // needs beacons on the air for the late-conflict watch to repair it.
    cfg.recovery.settle_slots =
        4 * static_cast<radio::Slot>(params.window_positive);

    const faults::FaultPlan plan =
        make_plan(intensity, n, params, side, ctx.seed);
    robust::RecoveryInstance instance(g, cfg);
    if (sidecar.observation() != nullptr) {
      instance.attach_observation(sidecar.observation());
    }
    faults::FaultEngine fault_engine(plan, cfg.seed);
    fault_engine.install(instance.simulator());
    const auto& nodes = instance.nodes();
    faults::InvariantMonitor monitor(
        g, [&nodes](graph::NodeId v) { return nodes[v]->final_color(); });
    monitor.attach(instance.simulator());
    const auto r = instance.run();

    TrialResult out;
    out.dropped = r.metrics.fault_dropped_deliveries;
    const double resolvable = static_cast<double>(
        r.metrics.total_deliveries + r.metrics.fault_dropped_deliveries);
    out.drop_rate =
        resolvable > 0.0 ? static_cast<double>(out.dropped) / resolvable : 0.0;
    const auto report = monitor.report();
    out.conflicts = report.legality_violations;
    out.repaired = report.conflicts_repaired;
    out.open = report.open_conflicts;
    out.max_duration = report.max_conflict_duration;
    for (const radio::Slot d : monitor.conflict_durations()) {
      ++out.duration_hist[duration_bucket(d)];
    }
    if (!plan.crashes.empty()) {
      const auto& crash = plan.crashes.front();
      const radio::Slot decided = r.metrics.decision_slot[crash.node];
      if (decided >= crash.restart) {
        out.rejoin_latency = decided - crash.restart;
      }
    }
    out.stalled = r.metrics.stalled_nodes;
    out.live_valid =
        core::live_coloring(g, r.coloring, r.metrics.death_slot).valid;
    out.monitor_clean = report.clean();
    for (std::size_t c = 0; c < kCheckCount; ++c) out.checks[c] = report.check[c];
    out.open_range = report.open_range;
    return out;
  };

  common::Table table({"medium", "intensity", "drop_rate", "conflicts",
                       "repaired", "open", "max_dur", "rejoin(avg)", "stalled",
                       "live-valid"});
  bool controls_clean = true;
  bool all_repaired = true;
  bool all_valid = true;
  bool no_stalls = true;
  bool curves_rise = true;
  std::vector<Aggregate> aggregates;

  for (std::size_t m = 0; m < std::size(kMedia); ++m) {
    double previous_rate = -1.0;
    for (std::size_t i = 0; i < std::size(kIntensities); ++i) {
      const double x = kIntensities[i];
      common::SweepTiming timing;
      const auto results = engine.run(
          seeds,
          common::derive_seed(common::derive_seed(base_seed, m), i),
          [&](const common::TrialContext& ctx) {
            return run_trial(kMedia[m], x, ctx);
          },
          &timing);
      Aggregate agg;
      for (const TrialResult& t : results) agg.add(t);

      table.add_row(
          {kMedia[m].name, common::Table::num(x, 2),
           common::Table::num(agg.drop_rate.mean(), 3),
           common::Table::integer(static_cast<long long>(agg.conflicts)),
           common::Table::integer(static_cast<long long>(agg.repaired)),
           common::Table::integer(static_cast<long long>(agg.open)),
           common::Table::integer(static_cast<long long>(agg.max_duration)),
           agg.rejoin.count() > 0 ? common::Table::num(agg.rejoin.mean(), 0)
                                  : "-",
           common::Table::integer(static_cast<long long>(agg.stalled)),
           agg.all_live_valid ? "yes" : "NO"});
      sidecar.record_trials(timing);

      if (x == 0.0) controls_clean &= agg.all_clean;
      all_repaired &= agg.open == 0;
      all_valid &= agg.all_live_valid;
      no_stalls &= agg.stalled == 0;
      curves_rise &= agg.drop_rate.mean() >= previous_rate;
      previous_rate = agg.drop_rate.mean();
      aggregates.push_back(agg);
    }
  }
  table.print(std::cout);

  // Dirty-row detail: for every row where the monitor fired, name WHICH
  // invariant broke and the slot window it spans, so a failing verdict (or
  // a look at a faulted row) points straight at the trace region to replay.
  {
    std::size_t row = 0;
    for (std::size_t m = 0; m < std::size(kMedia); ++m) {
      for (std::size_t i = 0; i < std::size(kIntensities); ++i, ++row) {
        const Aggregate& agg = aggregates[row];
        if (agg.all_clean) continue;
        std::printf("  dirty %s x=%.2f:", kMedia[m].name, kIntensities[i]);
        for (std::size_t c = 0; c < kCheckCount; ++c) {
          if (agg.checks[c].count == 0) continue;
          std::printf(" %s x%zu [slots %lld..%lld]",
                      faults::InvariantMonitor::check_name(c),
                      agg.checks[c].count,
                      static_cast<long long>(agg.checks[c].first_slot),
                      static_cast<long long>(agg.checks[c].last_slot));
        }
        if (agg.open_range.count > 0) {
          std::printf(" open x%zu [onset %lld..%lld]", agg.open_range.count,
                      static_cast<long long>(agg.open_range.first_slot),
                      static_cast<long long>(agg.open_range.last_slot));
        }
        std::printf("\n");
      }
    }
  }

  // Conflict-duration histogram over every faulted trial (repairs only).
  std::size_t hist[kDurationBuckets] = {0, 0, 0, 0};
  for (const Aggregate& agg : aggregates) {
    for (std::size_t b = 0; b < kDurationBuckets; ++b) {
      hist[b] += agg.duration_hist[b];
    }
  }
  std::printf("conflict durations (slots): <=8: %zu, <=64: %zu, <=512: %zu, "
              ">512: %zu\n",
              hist[0], hist[1], hist[2], hist[3]);

  if (!csv_path.empty() && table.write_csv(csv_path)) {
    std::printf("rows written to %s\n", csv_path.c_str());
  }

  // BENCH_chaos.json: the deterministic baseline (results only, no wall
  // times), wrapped in the sinrcolor.bench.v1 envelope. The envelope's
  // `threads` field records the actual sweep width, so CI compares the
  // PAYLOAD (not raw bytes) across thread counts — the payload is a pure
  // function of (topology, plans, seeds).
  if (!chaos_path.empty()) {
    common::JsonWriter json;
    bench::begin_bench_envelope(json, "x19_chaos", engine.thread_count());
    json.begin_object();
    json.field("n", n);
    json.field("avg_degree", avg);
    json.field("seeds", seeds);
    json.key("rows");
    json.begin_array();
    std::size_t row = 0;
    for (std::size_t m = 0; m < std::size(kMedia); ++m) {
      for (std::size_t i = 0; i < std::size(kIntensities); ++i, ++row) {
        const Aggregate& agg = aggregates[row];
        json.begin_object();
        json.field("medium", kMedia[m].name);
        json.field("intensity", kIntensities[i]);
        json.field("drop_rate", agg.drop_rate.mean());
        json.field("conflicts", agg.conflicts);
        json.field("repaired", agg.repaired);
        json.field("open", agg.open);
        json.field("max_conflict_duration",
                   static_cast<std::int64_t>(agg.max_duration));
        json.field("mean_rejoin_latency",
                   agg.rejoin.count() > 0 ? agg.rejoin.mean() : -1.0);
        json.field("stalled", agg.stalled);
        json.field("live_valid", agg.all_live_valid);
        json.field("monitor_clean", agg.all_clean);
        json.key("conflict_duration_hist");
        json.begin_array();
        for (std::size_t b = 0; b < kDurationBuckets; ++b) {
          json.value(agg.duration_hist[b]);
        }
        json.end_array();
        // Per-check firing detail — deterministic (counts and slot numbers
        // only), mirrors the dirty-row lines on stdout.
        json.key("checks");
        json.begin_object();
        for (std::size_t c = 0; c < kCheckCount; ++c) {
          json.key(faults::InvariantMonitor::check_name(c));
          json.begin_object();
          json.field("count", agg.checks[c].count);
          json.field("first_slot",
                     static_cast<std::int64_t>(agg.checks[c].first_slot));
          json.field("last_slot",
                     static_cast<std::int64_t>(agg.checks[c].last_slot));
          json.end_object();
        }
        json.key("open");
        json.begin_object();
        json.field("count", agg.open_range.count);
        json.field("first_onset",
                   static_cast<std::int64_t>(agg.open_range.first_slot));
        json.field("last_onset",
                   static_cast<std::int64_t>(agg.open_range.last_slot));
        json.end_object();
        json.end_object();
        json.end_object();
      }
    }
    json.end_array();
    json.end_object();
    bench::end_bench_envelope(json);
    if (!bench::write_atomic(chaos_path, json.str(), "chaos baseline")) {
      return 2;
    }
  }

  sidecar.write("x19_chaos");
  const bool pass = controls_clean && all_repaired && all_valid && no_stalls &&
                    curves_rise;
  std::string detail;
  if (pass) {
    detail = "controls invariant-clean; every injected conflict repaired, "
             "live colorings valid, drop curves rise with intensity";
  } else {
    detail = std::string("failed: ") +
             (!controls_clean ? "[control not clean] " : "") +
             (!all_repaired ? "[unrepaired conflicts] " : "") +
             (!all_valid ? "[invalid live coloring] " : "") +
             (!no_stalls ? "[stalled survivors] " : "") +
             (!curves_rise ? "[drop curve not monotone] " : "");
  }
  return bench::print_verdict(pass, detail);
}
