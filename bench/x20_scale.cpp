// X20 — scale bench (engineering claim, not a paper claim): the simulator's
// one sequential slot loop must (a) run every medium (sinr | sinr+fading |
// graph) to a valid coloring, (b) stay allocation-free in steady state at
// every size, and (c) complete a million-node run with measured bytes/node —
// the memory trajectory the SoA/arena layout buys (docs/PERFORMANCE.md,
// "One slot loop").
//
// Two row families, each row run and timed once:
//  * convergence rows (--n-list): every medium, run to full convergence.
//  * scale rows (--big-n, plain SINR only): slot-count capped (--big-slots) —
//    at 10^6 nodes the MW listen phase alone spans ⌈σΔ ln n⌉ slots, so these
//    rows measure slot-loop throughput and bytes/node honestly (all_decided
//    is expected false and not gated).
//
// FAIL on an incomplete convergence row, an invalid coloring, or a
// steady-state allocation (counting builds).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/alloc_counter.h"
#include "common/cli.h"
#include "common/table.h"
#include "core/mw_protocol.h"

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

struct RunOutcome {
  std::uint64_t wall_us = 0;
  radio::RunMetrics metrics;
  bool coloring_valid = false;
};

}  // namespace

int main(int argc, char** argv) {
  const common::Cli cli(argc, argv);
  const std::string n_list = cli.get("n-list", "1000,4000");
  const double avg = cli.get_double_at_least("avg-degree", 12.0, 1e-9);
  const auto seed = cli.get_seed("seed", 1);
  const auto big_n =
      static_cast<std::size_t>(cli.get_int_at_least("big-n", 0, 0));
  const auto big_slots =
      static_cast<radio::Slot>(cli.get_int_at_least("big-slots", 64, 1));
  bench::MetricsSidecar sidecar(cli);
  cli.reject_unknown();

  std::vector<std::size_t> sizes;
  std::size_t pos = 0;
  while (pos < n_list.size()) {
    const std::size_t comma = n_list.find(',', pos);
    const std::string tok =
        n_list.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
    // Digits only: strtoul alone would wrap "-5" to a huge node count.
    const bool digits = !tok.empty() && tok.find_first_not_of("0123456789") ==
                                            std::string::npos;
    const unsigned long v =
        digits ? std::strtoul(tok.c_str(), nullptr, 10) : 0;
    if (v == 0) {
      std::fprintf(stderr, "bad --n-list entry '%s'\n", tok.c_str());
      return 2;
    }
    sizes.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  bench::print_experiment_header(
      "X20: the slot loop at scale",
      "engineering — every medium runs to a valid coloring, the slot loop "
      "stays allocation-free, and a million-node run completes with measured "
      "bytes/node");

  // One full protocol run. The sidecar observation is never attached to
  // these runs (its tracer would time the trace, not the slot loop);
  // aggregate counters are recorded into the sidecar registry directly.
  const auto run_once = [&](const Medium& medium, std::size_t n,
                            radio::Slot max_slots) -> RunOutcome {
    const auto g = bench::shared_uniform_graph_with_density(n, avg, seed);
    core::MwRunConfig cfg;
    cfg.seed = seed;
    cfg.graph_model = medium.graph_model;
    if (medium.fading) cfg.fading.kind = sinr::FadingKind::kLogNormal;
    cfg.max_slots = max_slots;
    // The incremental Theorem-1 observer scans all n nodes every slot;
    // validity is still checked once post-run.
    cfg.check_independence = false;
    RunOutcome out;
    bench::WallTimer timer;
    const core::MwRunResult r = core::run_mw_coloring(*g, cfg);
    out.wall_us = timer.elapsed_us();
    out.metrics = r.metrics;
    out.coloring_valid = r.coloring_valid;
    return out;
  };

  const auto slots_per_sec = [](const RunOutcome& o) {
    return o.wall_us > 0 ? static_cast<double>(o.metrics.slots_executed) *
                               1e6 / static_cast<double>(o.wall_us)
                         : 0.0;
  };

  common::Table table({"medium", "n", "slots", "wall_us", "slots/sec",
                       "bytes/node", "decided"});
  std::uint64_t slot_allocs = 0;
  std::size_t steady_violations = 0;
  std::size_t incomplete = 0;
  std::size_t invalid_colorings = 0;
  double headline_slots_per_sec = 0.0;
  double headline_bytes_per_node = 0.0;
  std::size_t n_max = 0;

  const auto add_row = [&](const Medium& medium, std::size_t n,
                           radio::Slot max_slots, bool gate_decided) {
    const RunOutcome run = run_once(medium, n, max_slots);
    slot_allocs += run.metrics.slot_heap_allocs;
    if (!run.metrics.steady_state_alloc_free()) ++steady_violations;
    if (gate_decided) {
      if (!run.metrics.all_decided) ++incomplete;
      if (!run.coloring_valid) ++invalid_colorings;
    }
    const double rate = slots_per_sec(run);
    const double bpn = run.metrics.bytes_per_node();
    table.add_row(
        {medium.name, common::Table::integer(static_cast<long long>(n)),
         common::Table::integer(
             static_cast<long long>(run.metrics.slots_executed)),
         common::Table::integer(static_cast<long long>(run.wall_us)),
         common::Table::num(rate, 0), common::Table::num(bpn, 0),
         run.metrics.all_decided ? "yes" : "no"});
    if (n >= n_max && !medium.graph_model && !medium.fading) {
      n_max = n;
      headline_slots_per_sec = rate;
      headline_bytes_per_node = bpn;
    }
  };

  for (const std::size_t n : sizes) {
    for (const Medium& medium : kMedia) {
      add_row(medium, n, /*max_slots=*/0, /*gate_decided=*/true);
    }
  }
  if (big_n > 0) {
    add_row(kMedia[0], big_n, big_slots, /*gate_decided=*/false);
  }
  table.print(std::cout);

  const std::uint64_t rss = bench::peak_rss_bytes();
  std::printf("avg_degree=%.1f seed=%llu peak_rss=%.1f MB\n", avg,
              static_cast<unsigned long long>(seed),
              static_cast<double>(rss) / (1024.0 * 1024.0));
  std::printf("incomplete converged rows: %zu; invalid colorings: %zu\n",
              incomplete, invalid_colorings);
  if (common::alloc_counting_enabled()) {
    std::printf("slot-loop allocs: %llu total, %zu rows violating the "
                "steady-state contract (%s)\n",
                static_cast<unsigned long long>(slot_allocs),
                steady_violations,
                steady_violations == 0 ? "alloc-free steady state"
                                       : "ALLOCATING");
  }
  std::printf("headline (plain sinr, n=%zu): %.0f slots/sec, "
              "%.0f bytes/node\n",
              n_max, headline_slots_per_sec, headline_bytes_per_node);

  if (sidecar.observation() != nullptr) {
    auto& m = sidecar.observation()->metrics;
    m.counter("x20.slots_per_sec")
        .add(static_cast<std::uint64_t>(headline_slots_per_sec));
    m.counter("x20.bytes_per_node")
        .add(static_cast<std::uint64_t>(headline_bytes_per_node));
    m.counter("x20.peak_rss_bytes").add(rss);
    m.counter("x20.n_max").add(n_max);
    m.counter("x20.slot_allocs").add(slot_allocs);
    m.counter("x20.steady_violations").add(steady_violations);
  }
  sidecar.write("x20_scale");

  const bool alloc_free =
      !common::alloc_counting_enabled() || steady_violations == 0;
  const bool pass = incomplete == 0 && invalid_colorings == 0 && alloc_free;
  return bench::print_verdict(
      pass, incomplete > 0
                ? "a convergence row failed to decide every node"
                : (invalid_colorings > 0
                       ? "a converged run produced an invalid coloring"
                       : (alloc_free ? "every medium converged to a valid "
                                       "coloring, slot loop alloc-free"
                                     : "slot loop allocated in steady state")));
}
