// Micro-benchmarks (google-benchmark) for the hot paths of the simulator:
// SINR field evaluation, per-slot reception resolution, spatial-index radius
// queries, UDG construction and deployment generation.
#include <benchmark/benchmark.h>

#include <cmath>

#include "baseline/greedy_coloring.h"
#include "common/rng.h"
#include "geometry/deployment.h"
#include "geometry/grid_index.h"
#include "graph/unit_disk_graph.h"
#include "radio/interference_model.h"
#include "sinr/medium_field.h"
#include "sinr/reception.h"

namespace {

using namespace sinrcolor;

sinr::SinrParams phys_for_radius(double r_t) {
  return sinr::SinrParams{}.with_r_t(r_t);
}

std::vector<sinr::Transmitter> random_txs(std::size_t k, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<sinr::Transmitter> txs;
  txs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    txs.push_back({{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}});
  }
  return txs;
}

void BM_InterferenceField(benchmark::State& state) {
  const auto phys = phys_for_radius(1.0);
  const auto txs = random_txs(static_cast<std::size_t>(state.range(0)), 42);
  const geometry::Point at{5.0, 5.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sinr::interference_at(phys, at, txs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InterferenceField)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ResolveReception(benchmark::State& state) {
  const auto phys = phys_for_radius(1.0);
  const auto txs = random_txs(static_cast<std::size_t>(state.range(0)), 43);
  const geometry::Point at{5.0, 5.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sinr::resolve_reception(phys, at, txs));
  }
}
BENCHMARK(BM_ResolveReception)->Arg(4)->Arg(16)->Arg(64);

void BM_GridIndexQuery(benchmark::State& state) {
  common::Rng rng(44);
  const auto dep = geometry::uniform_deployment(
      static_cast<std::size_t>(state.range(0)), 10.0, rng);
  const geometry::GridIndex index(dep.points, dep.side, 1.0);
  std::size_t q = 0;
  for (auto _ : state) {
    const auto& center = dep.points[q++ % dep.points.size()];
    std::size_t count = 0;
    index.for_each_within(center, 1.0,
                          [&](std::size_t, const geometry::Point&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_GridIndexQuery)->Arg(256)->Arg(1024)->Arg(4096);

void BM_UdgConstruction(benchmark::State& state) {
  common::Rng rng(45);
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) * M_PI / 12.0);
  const auto dep = geometry::uniform_deployment(n, side, rng);
  for (auto _ : state) {
    graph::UnitDiskGraph g(dep, 1.0);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_UdgConstruction)->Arg(256)->Arg(1024)->Arg(4096);

void medium_resolve_slot(benchmark::State& state, sinr::ResolveKind kind) {
  // A representative protocol slot: n nodes, ~n*q transmitters. The naive
  // and field variants resolve the identical workload, so their ratio is the
  // shared-field speedup (bench/x18_resolve_field measures it end to end).
  common::Rng rng(46);
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) * M_PI / 14.0);
  graph::UnitDiskGraph g(geometry::uniform_deployment(n, side, rng), 1.0);
  radio::SinrInterferenceModel model(g, phys_for_radius(1.0), kind);

  std::vector<radio::TxRecord> txs;
  std::vector<std::uint8_t> listening(n, 1);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (rng.bernoulli(4.0 / static_cast<double>(n))) {
      radio::Message m;
      m.kind = radio::MessageKind::kCompete;
      m.sender = v;
      txs.push_back({v, m});
      listening[v] = 0;
    }
  }
  // The sparse resolve the simulator runs: a reception list, no dense
  // per-node delivery array to clear.
  std::vector<radio::Reception> receptions;
  receptions.reserve(n);
  for (auto _ : state) {
    model.resolve(0, txs, listening, receptions);
    benchmark::DoNotOptimize(receptions.data());
    benchmark::ClobberMemory();
  }
}

void BM_MediumResolveSlotNaive(benchmark::State& state) {
  medium_resolve_slot(state, sinr::ResolveKind::kNaive);
}
BENCHMARK(BM_MediumResolveSlotNaive)->Arg(256)->Arg(1024);

void BM_MediumResolveSlotField(benchmark::State& state) {
  medium_resolve_slot(state, sinr::ResolveKind::kField);
}
BENCHMARK(BM_MediumResolveSlotField)->Arg(256)->Arg(1024);

void BM_MediumResolveSlotSimd(benchmark::State& state) {
  medium_resolve_slot(state, sinr::ResolveKind::kSimd);
}
BENCHMARK(BM_MediumResolveSlotSimd)->Arg(256)->Arg(1024);

void BM_DeploymentGeneration(benchmark::State& state) {
  common::Rng rng(47);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry::uniform_deployment(n, 10.0, rng));
  }
}
BENCHMARK(BM_DeploymentGeneration)->Arg(1024)->Arg(16384);

void BM_GreedyColoring(benchmark::State& state) {
  common::Rng rng(48);
  const auto n = static_cast<std::size_t>(state.range(0));
  const double side = std::sqrt(static_cast<double>(n) * M_PI / 12.0);
  graph::UnitDiskGraph g(geometry::uniform_deployment(n, side, rng), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::greedy_coloring(g));
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(256)->Arg(1024);

}  // namespace
