// X18 — interference-field fast paths (engineering claim, not a paper claim):
// resolving a slot through the shared field F(u) = Σ_j P/δ(u,t_j)^α must
// deliver EXACTLY the same messages as the naive per-(sender, listener)
// resolution, and must be faster — O(T·coverage) versus O(T²·Δ) per slot
// (docs/PERFORMANCE.md). Three-way harness: naive (the oracle), field (the
// scalar per-listener loop) and simd (the SoA batch kernel with batched
// Kahan — docs/KERNELS.md) replay identical transmitter sets; delivery
// equality is verified slot by slot across all three, then each path is
// timed over the same workload. FAIL if any delivery differs, the field path
// is not faster than naive, or the simd path is not faster than field.
//
// Every pass calls the sparse resolve the simulator runs (a reception list,
// no dense per-node delivery array) on the pass's own thread. The timing
// reps run through common::SweepEngine (`--threads=N` reps at a time,
// per-rep p50/p95 in the sidecar): each rep owns its model instances (their
// resolve scratch is reusable but not shareable) and reads the one graph
// the harness built. The rep loop also audits the zero-allocation contract:
// after the first slot sizes the scratch, resolves allocate nothing — for
// the simd path that includes the SoA arrays and the coverage candidate
// CSR.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/alloc_counter.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/sweep.h"
#include "common/table.h"
#include "radio/interference_model.h"

int main(int argc, char** argv) {
  using namespace sinrcolor;
  const common::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int_at_least("n", 2000, 1));
  const double avg = cli.get_double_at_least("avg-degree", 64.0, 1e-9);
  const double tx_prob =
      cli.get_probability("tx-prob", 0.25, /*allow_one=*/true);
  const auto slots =
      static_cast<std::size_t>(cli.get_int_at_least("slots", 40, 1));
  const std::size_t reps = common::sweep_trials(cli, "reps", 3);
  const auto seed = cli.get_seed("seed", 1);
  const std::size_t threads = common::sweep_threads(cli);
  bench::MetricsSidecar sidecar(cli);
  sidecar.set_threads(threads);
  cli.reject_unknown();

  bench::print_experiment_header(
      "X18: naive vs field vs simd resolve",
      "engineering — the field paths deliver identical messages; field beats "
      "naive and the simd kernel beats field in wall time at n=2000, "
      "Delta~64");

  const auto g = bench::uniform_graph_with_density(n, avg, seed);
  const auto phys = bench::phys_for_radius(g.radius());

  // Pre-draw every slot's transmitter set so all paths replay the exact
  // same workload (transmitters never listen — half-duplex).
  common::Rng rng(common::derive_seed(seed, 0x18ULL));
  std::vector<std::vector<radio::TxRecord>> slot_txs(slots);
  std::vector<std::vector<std::uint8_t>> slot_listening(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    slot_listening[t].assign(n, 1);
    for (graph::NodeId v = 0; v < n; ++v) {
      if (!rng.bernoulli(tx_prob)) continue;
      radio::Message m;
      m.kind = radio::MessageKind::kCompete;
      m.sender = v;
      slot_txs[t].push_back({v, m});
      slot_listening[t][v] = 0;
    }
  }

  // One timed pass over the replayed workload with a fresh `kind` model.
  // Returns the allocations the resolve loop performed after its first slot
  // — the steady-state number, which the scratch reserves must hold at zero.
  struct PassResult {
    std::uint64_t steady_allocs = 0;
  };
  const auto timed_pass = [&](sinr::ResolveKind kind) -> PassResult {
    const radio::SinrInterferenceModel model(g, phys, kind);
    std::vector<radio::Reception> receptions;
    receptions.reserve(n);
    PassResult out;
    for (std::size_t t = 0; t < slots; ++t) {
      const std::uint64_t before = common::thread_heap_allocs();
      model.resolve(static_cast<radio::Slot>(t), slot_txs[t],
                    slot_listening[t], receptions);
      if (t > 0) out.steady_allocs += common::thread_heap_allocs() - before;
    }
    return out;
  };

  // Equality first: every path must deliver the same (listener, sender)
  // pairs in every slot. Naive is the oracle both fast paths compare to.
  // got[t][u] = the sender u decoded in slot t (kInvalidNode = none).
  const auto capture_pass = [&](sinr::ResolveKind kind) {
    const radio::SinrInterferenceModel model(g, phys, kind);
    std::vector<std::vector<graph::NodeId>> got(
        slots, std::vector<graph::NodeId>(n, graph::kInvalidNode));
    std::vector<radio::Reception> receptions;
    for (std::size_t t = 0; t < slots; ++t) {
      model.resolve(static_cast<radio::Slot>(t), slot_txs[t],
                    slot_listening[t], receptions);
      for (const radio::Reception& r : receptions) {
        got[t][r.listener] = slot_txs[t][r.tx].sender;
      }
    }
    return got;
  };
  const auto got_naive = capture_pass(sinr::ResolveKind::kNaive);
  const auto got_field = capture_pass(sinr::ResolveKind::kField);
  const auto got_simd = capture_pass(sinr::ResolveKind::kSimd);
  const auto count_mismatches = [&](const auto& a_pass, const auto& b_pass) {
    std::size_t bad = 0;
    for (std::size_t t = 0; t < slots; ++t) {
      for (std::size_t u = 0; u < n; ++u) {
        bad += a_pass[t][u] != b_pass[t][u];
      }
    }
    return bad;
  };
  std::size_t deliveries_total = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t u = 0; u < n; ++u) {
      deliveries_total += got_naive[t][u] != graph::kInvalidNode;
    }
  }
  const std::size_t field_mismatches = count_mismatches(got_naive, got_field);
  const std::size_t simd_mismatches = count_mismatches(got_naive, got_simd);
  const std::size_t mismatches = field_mismatches + simd_mismatches;

  // Then timing: `reps` independent passes per path through the sweep
  // engine. Per-rep wall times feed the sidecar's p50/p95; the printed
  // wall_us is the per-rep p50 (robust against a noisy neighbor rep).
  common::SweepEngine engine(threads);
  struct PathTiming {
    common::SweepTiming timing;
    std::uint64_t steady_allocs = 0;
  };
  const auto time_path = [&](sinr::ResolveKind kind,
                             std::uint64_t salt) -> PathTiming {
    PathTiming out;
    const auto results = engine.run(
        reps, common::derive_seed(seed, salt),
        [&](const common::TrialContext&) { return timed_pass(kind); },
        &out.timing);
    for (const PassResult& r : results) out.steady_allocs += r.steady_allocs;
    return out;
  };
  const PathTiming naive_pt = time_path(sinr::ResolveKind::kNaive, 0xA);
  const PathTiming field_pt = time_path(sinr::ResolveKind::kField, 0xB);
  const PathTiming simd_pt = time_path(sinr::ResolveKind::kSimd, 0xC);
  sidecar.record_trials(naive_pt.timing);
  sidecar.record_trials(field_pt.timing);
  sidecar.record_trials(simd_pt.timing);
  const std::uint64_t naive_us = naive_pt.timing.p50_us();
  const std::uint64_t field_us = field_pt.timing.p50_us();
  const std::uint64_t simd_us = simd_pt.timing.p50_us();
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const double speedup_field = ratio(naive_us, field_us);       // field/naive
  const double speedup_simd_field = ratio(field_us, simd_us);   // simd/field
  const double speedup_simd_naive = ratio(naive_us, simd_us);   // simd/naive

  common::Table table(
      {"path", "slots/rep", "p50_wall_us", "us/slot", "deliveries"});
  const auto slots_d = static_cast<double>(slots);
  const auto add_path_row = [&](const char* name, std::uint64_t us) {
    table.add_row({name, common::Table::integer(static_cast<long long>(slots)),
                   common::Table::integer(static_cast<long long>(us)),
                   common::Table::num(static_cast<double>(us) / slots_d, 1),
                   common::Table::integer(
                       static_cast<long long>(deliveries_total))});
  };
  add_path_row("naive", naive_us);
  add_path_row("field", field_us);
  add_path_row("simd", simd_us);
  table.print(std::cout);
  std::printf("n=%zu Delta=%zu avg_deg=%.1f tx_prob=%.2f reps=%zu "
              "threads=%zu\n",
              g.size(), g.max_degree(), g.average_degree(), tx_prob, reps,
              threads);
  std::printf("delivery mismatches: field=%zu simd=%zu / %zu deliveries\n",
              field_mismatches, simd_mismatches, deliveries_total);
  std::printf("speedup: field %.2fx over naive, simd %.2fx over field "
              "(%.2fx over naive), per-rep p50\n",
              speedup_field, speedup_simd_field, speedup_simd_naive);
  const bool alloc_free = !common::alloc_counting_enabled() ||
                          (naive_pt.steady_allocs == 0 &&
                           field_pt.steady_allocs == 0 &&
                           simd_pt.steady_allocs == 0);
  if (common::alloc_counting_enabled()) {
    std::printf(
        "steady-state resolve allocs: naive=%llu field=%llu simd=%llu (%s)\n",
        static_cast<unsigned long long>(naive_pt.steady_allocs),
        static_cast<unsigned long long>(field_pt.steady_allocs),
        static_cast<unsigned long long>(simd_pt.steady_allocs),
        alloc_free ? "alloc-free after first slot" : "ALLOCATING");
  }

  if (sidecar.observation() != nullptr) {
    auto& m = sidecar.observation()->metrics;
    m.counter("x18.naive_us").add(naive_us);
    m.counter("x18.field_us").add(field_us);
    m.counter("x18.simd_us").add(simd_us);
    // Legacy two-way key (field over naive) plus the per-kind ratios.
    m.counter("x18.speedup_permille")
        .add(static_cast<std::uint64_t>(speedup_field * 1000.0));
    m.counter("x18.speedup_vs_field_permille")
        .add(static_cast<std::uint64_t>(speedup_simd_field * 1000.0));
    m.counter("x18.speedup_vs_naive_permille")
        .add(static_cast<std::uint64_t>(speedup_simd_naive * 1000.0));
    m.counter("x18.deliveries").add(deliveries_total);
    m.counter("x18.mismatches").add(mismatches);
    m.counter("x18.simd_mismatches").add(simd_mismatches);
    m.counter("x18.n").add(n);
    m.counter("x18.steady_allocs")
        .add(naive_pt.steady_allocs + field_pt.steady_allocs +
             simd_pt.steady_allocs);
  }
  sidecar.write("x18_resolve_field");

  const bool equal = mismatches == 0;
  const bool field_faster = field_us < naive_us;
  const bool simd_faster = simd_us < field_us;
  return bench::print_verdict(
      equal && field_faster && simd_faster && alloc_free,
      !equal ? "a fast path delivered different messages than naive"
             : (!field_faster
                    ? "identical deliveries but field path is SLOWER than naive"
                    : (!simd_faster
                           ? "identical deliveries but simd kernel is SLOWER "
                             "than field"
                           : (alloc_free
                                  ? "identical deliveries, field beats naive, "
                                    "simd beats field, steady-state alloc-free"
                                  : "resolve allocated in steady state"))));
}
