// X2 — Theorem 2 (time, growth in n): at fixed density (Δ ≈ const) the
// decision latency grows like O(Δ log n), i.e. ~logarithmically in n. We fit
// latency against Δ·ln n and report the normalized constant per row; the
// claim's shape holds iff the constant is flat (no super-logarithmic drift).
//
// Trials run through common::SweepEngine: `--threads=N` executes the seeds
// of each size concurrently, with trial i's randomness derived from
// (base seed, i) alone, so the table and the CSV are byte-identical for
// EVERY thread count (CI diffs --threads=1 against --threads=4). Wall time
// is reported separately on stdout / in the sidecar — never in the CSV.
// `--sweep-bench-out=PATH` additionally times the largest size's sweep
// serial-vs-threaded and writes the BENCH_sweep.json baseline (wall times,
// speedup, allocs/slot before/after the zero-allocation slot loop).
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/alloc_counter.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/sweep.h"
#include "common/table.h"
#include "core/mw_protocol.h"

namespace {

using namespace sinrcolor;

// Everything the table needs from one trial — results only, no wall time,
// so merged rows are a pure function of (base seed, trial index).
struct TrialResult {
  double delta = 0.0;
  double max_latency = 0.0;
  double mean_latency = 0.0;
  double norm = 0.0;  ///< max latency / (Δ·ln n)
  bool valid = false;
  std::uint64_t slot_allocs = 0;
  std::int64_t slots = 0;
  bool steady_alloc_free = false;
};

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const bool full = cli.get_bool("full", false);
  const double avg = cli.get_double_at_least("avg-degree", 10.0, 1e-9);
  const std::size_t seeds = common::sweep_trials(cli, "seeds", 2);
  const auto base_seed = cli.get_seed("seed", 2);
  const std::string csv_path = cli.get("csv", "");
  const std::string bench_path = cli.get("sweep-bench-out", "");
  // --resolve picks each trial's reception path; --threads is the trial
  // width of the sweep.
  core::MwRunConfig base_cfg;
  base_cfg.resolve = core::resolve_kind_flag(cli);
  std::size_t threads = common::sweep_threads(cli);
  bench::MetricsSidecar sidecar(cli);
  cli.reject_unknown();

  bench::print_experiment_header(
      "X2: time vs n (fixed density)",
      "Theorem 2 — time is O(Delta log n): with Delta ~ constant, max "
      "decision latency grows ~ln n; latency/(Delta*ln n) stays flat");

  // The shared RunObservation is not thread-safe; a sidecar-attached sweep
  // must run its trials serially. Sidecar runs are about metrics, not
  // wall-clock, so this costs nothing the sidecar cares about.
  if (sidecar.observation() != nullptr && threads > 1) {
    std::printf("note: --metrics-out forces --threads=1 (shared observation "
                "is single-threaded)\n");
    threads = 1;
  }
  sidecar.set_threads(threads);

  std::vector<std::size_t> sizes{64, 128, 256, 512, 1024};
  if (full) sizes.push_back(2048);

  common::SweepEngine engine(threads);

  // One trial of size n: topology and protocol randomness both derive from
  // the trial's own seed stream, so the result depends only on
  // (base_seed, trial index, n) — not on thread count or execution order.
  const auto run_trial = [&](std::size_t n, const common::TrialContext& ctx,
                             bool attach_sidecar) -> TrialResult {
    const auto g = bench::uniform_graph_with_density(
        n, avg, common::derive_seed(ctx.seed, 0x67));  // 'g' — graph stream
    core::MwRunConfig cfg = base_cfg;
    cfg.seed = ctx.seed;
    core::MwInstance instance(g, cfg);
    if (attach_sidecar && sidecar.observation() != nullptr) {
      instance.attach_observation(sidecar.observation());
    }
    const auto r = instance.run();
    TrialResult out;
    out.delta = static_cast<double>(g.max_degree());
    out.max_latency = static_cast<double>(r.metrics.max_decision_latency());
    out.mean_latency = r.metrics.mean_decision_latency();
    out.norm = out.max_latency / (out.delta * std::log(static_cast<double>(n)));
    out.valid = r.coloring_valid && r.metrics.all_decided;
    out.slot_allocs = r.metrics.slot_heap_allocs;
    out.slots = r.metrics.slots_executed;
    out.steady_alloc_free = r.metrics.steady_state_alloc_free();
    return out;
  };

  common::Table table({"n", "Delta", "max_latency", "mean_latency",
                       "latency/(Delta*ln n)", "valid"});
  std::vector<double> constants;
  bool all_valid = true;
  bool all_alloc_free = true;
  std::uint64_t total_allocs = 0;
  std::int64_t total_slots = 0;
  common::SweepTiming all_timing;

  for (std::size_t n : sizes) {
    common::SweepTiming timing;
    const auto results = engine.run(
        seeds, common::derive_seed(base_seed, n),
        [&](const common::TrialContext& ctx) {
          return run_trial(n, ctx, /*attach_sidecar=*/true);
        },
        &timing);
    common::Accumulator delta_acc, max_lat, mean_lat, norm;
    for (const TrialResult& r : results) {
      all_valid &= r.valid;
      all_alloc_free &= r.steady_alloc_free;
      total_allocs += r.slot_allocs;
      total_slots += r.slots;
      delta_acc.add(r.delta);
      max_lat.add(r.max_latency);
      mean_lat.add(r.mean_latency);
      norm.add(r.norm);
    }
    constants.push_back(norm.mean());
    table.add_row({common::Table::integer(static_cast<long long>(n)),
                   common::Table::num(delta_acc.mean(), 1),
                   common::Table::num(max_lat.mean(), 0),
                   common::Table::num(mean_lat.mean(), 0),
                   common::Table::num(norm.mean(), 1),
                   all_valid ? "yes" : "NO"});
    std::printf("n=%zu: %zu trials in %.1f ms wall (p50 %.1f ms, p95 %.1f ms "
                "per trial, %zu threads)\n",
                n, seeds, static_cast<double>(timing.total_us) / 1000.0,
                static_cast<double>(timing.p50_us()) / 1000.0,
                static_cast<double>(timing.p95_us()) / 1000.0, threads);
    sidecar.record_trials(timing);
    all_timing.trial_us.insert(all_timing.trial_us.end(),
                               timing.trial_us.begin(), timing.trial_us.end());
    all_timing.total_us += timing.total_us;
  }
  table.print(std::cout);
  if (common::alloc_counting_enabled()) {
    std::printf("slot-loop allocs: %llu over %lld slots (%s)\n",
                static_cast<unsigned long long>(total_allocs),
                static_cast<long long>(total_slots),
                all_alloc_free ? "all runs steady-state alloc-free"
                               : "STEADY-STATE ALLOCATION DETECTED");
  }
  if (!csv_path.empty() && table.write_csv(csv_path)) {
    std::printf("rows written to %s\n", csv_path.c_str());
  }

  // BENCH_sweep.json: re-run the largest size serial vs threaded over the
  // identical trial set, verify the results agree, record wall + allocs.
  if (!bench_path.empty()) {
    const std::size_t n = sizes.back();
    const std::size_t bench_threads =
        threads > 1 ? threads
                    : std::max<std::size_t>(
                          2, std::thread::hardware_concurrency());
    const std::uint64_t bench_seed = common::derive_seed(base_seed, n);
    // The benchmark sweeps run without the sidecar attached — the shared
    // observation is single-threaded and would also distort the timing.
    const auto trial = [&](const common::TrialContext& ctx) {
      return run_trial(n, ctx, /*attach_sidecar=*/false);
    };
    common::SweepEngine serial(1);
    common::SweepEngine parallel(bench_threads);
    common::SweepTiming serial_t, parallel_t;
    const auto serial_r = serial.run(seeds, bench_seed, trial, &serial_t);
    const auto parallel_r = parallel.run(seeds, bench_seed, trial, &parallel_t);
    bool identical = serial_r.size() == parallel_r.size();
    std::uint64_t after_allocs = 0;
    std::int64_t after_slots = 0;
    bool steady_free = true;
    for (std::size_t i = 0; identical && i < serial_r.size(); ++i) {
      identical = serial_r[i].max_latency == parallel_r[i].max_latency &&
                  serial_r[i].mean_latency == parallel_r[i].mean_latency &&
                  serial_r[i].valid == parallel_r[i].valid;
      after_allocs += serial_r[i].slot_allocs;
      after_slots += serial_r[i].slots;
      steady_free &= serial_r[i].steady_alloc_free;
    }
    const double speedup =
        parallel_t.total_us > 0
            ? static_cast<double>(serial_t.total_us) /
                  static_cast<double>(parallel_t.total_us)
            : 0.0;
    common::JsonWriter json;
    bench::begin_bench_envelope(json, "x2_sweep_bench", bench_threads);
    json.begin_object();
    json.field("n", n);
    json.field("trials", seeds);
    json.key("serial");
    json.begin_object();
    json.field("threads", 1);
    json.field("wall_us", serial_t.total_us);
    json.field("p50_us", serial_t.p50_us());
    json.field("p95_us", serial_t.p95_us());
    json.end_object();
    json.key("threaded");
    json.begin_object();
    json.field("threads", bench_threads);
    json.field("wall_us", parallel_t.total_us);
    json.field("p50_us", parallel_t.p50_us());
    json.field("p95_us", parallel_t.p95_us());
    json.end_object();
    json.field("speedup", speedup);
    json.field("results_identical", identical);
    json.key("allocs_per_slot");
    json.begin_object();
    json.field("counting_enabled", common::alloc_counting_enabled());
    // Pre-hoist baseline, measured at n=1024 before the slot-loop arena /
    // scratch reserves landed: 169324 allocations over 194054 slots.
    json.field("before", 0.8726);
    json.field("after", after_slots > 0
                            ? static_cast<double>(after_allocs) /
                                  static_cast<double>(after_slots)
                            : 0.0);
    json.field("steady_state_alloc_free", steady_free);
    json.end_object();
    json.end_object();
    bench::end_bench_envelope(json);
    if (!bench::write_atomic(bench_path, json.str(), "sweep bench")) return 2;
    std::printf("sweep bench: serial %.1f ms, %zu threads %.1f ms, "
                "speedup %.2fx, results %s\n",
                static_cast<double>(serial_t.total_us) / 1000.0, bench_threads,
                static_cast<double>(parallel_t.total_us) / 1000.0, speedup,
                identical ? "identical" : "DIFFERENT");
    if (!identical) return bench::print_verdict(false,
        "serial and threaded sweeps disagree");
  }

  // Shape check: the normalized constant must not drift more than ~2.5x
  // across a 16x range of n (log-growth would keep it flat; linear growth in
  // n would blow it up ~16/ln-ratio ≈ 6x).
  double lo = constants.front(), hi = constants.front();
  for (double c : constants) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  std::printf("normalized constant range: [%.1f, %.1f] (ratio %.2f)\n", lo, hi,
              hi / lo);
  sidecar.write("x2_time_vs_n");
  const bool flat = hi / lo < 2.5;
  return bench::print_verdict(all_valid && flat,
                              flat ? "latency tracks Delta*ln n"
                                   : "latency grows faster than Delta*ln n");
}
