// Determinism regression: the simulator's evidence for Theorems 1–3 is only
// trustworthy if a run is a pure function of (scenario, seed). Each test runs
// the same seeded scenario twice through a fresh driver and requires the
// serialized JSON reports to be BYTE-identical — any hash-order iteration,
// uninitialised read or hidden global sneaking into results shows up here as
// a diff (sinrlint R1/R3 guard the same property statically).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/adaptive.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/observation.h"
#include "robust/recovery_protocol.h"

namespace sinrcolor {
namespace {

graph::UnitDiskGraph scenario_graph(std::uint64_t seed) {
  common::Rng rng(seed);
  return graph::UnitDiskGraph(geometry::uniform_deployment(60, 3.5, rng), 1.0);
}

TEST(Determinism, PlainMwRunReportIsByteStable) {
  const auto g = scenario_graph(77);
  core::MwRunConfig cfg;
  cfg.seed = 42;
  const std::string first = core::to_json(core::run_mw_coloring(g, cfg));
  const std::string second = core::to_json(core::run_mw_coloring(g, cfg));
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, StaggeredWakeupWithFailuresIsByteStable) {
  const auto g = scenario_graph(78);
  core::MwRunConfig cfg;
  cfg.seed = 9001;
  cfg.wakeup = core::WakeupKind::kUniform;
  cfg.wakeup_window = 64;
  cfg.failure_fraction = 0.05;
  cfg.failure_window = 200;
  const std::string first = core::to_json(core::run_mw_coloring(g, cfg));
  const std::string second = core::to_json(core::run_mw_coloring(g, cfg));
  EXPECT_EQ(first, second);
}

TEST(Determinism, RecoveryRunReportIsByteStable) {
  const auto g = scenario_graph(79);
  core::MwRunConfig cfg;
  cfg.seed = 1234;
  cfg.recovery.enabled = true;
  cfg.recovery.join_fraction = 0.10;
  cfg.recovery.join_at = 50;
  cfg.recovery.join_window = 100;
  cfg.failure_fraction = 0.05;
  cfg.failure_window = 100;
  const std::string first = core::to_json(robust::run_recovering_mw(g, cfg));
  const std::string second = core::to_json(robust::run_recovering_mw(g, cfg));
  EXPECT_EQ(first, second);
}

TEST(Determinism, AdaptiveRunIsSeedStable) {
  // The adaptive variant has no JSON report; compare the full coloring and
  // the restart/Δ̂ statistics field by field (heard_ feeds restart decisions,
  // which is exactly the hazard the std::set migration closed).
  const auto g = scenario_graph(80);
  core::AdaptiveRunConfig cfg;
  cfg.seed = 4242;
  const auto first = core::run_adaptive_coloring(g, cfg);
  const auto second = core::run_adaptive_coloring(g, cfg);
  EXPECT_EQ(first.coloring.color, second.coloring.color);
  EXPECT_EQ(first.total_restarts, second.total_restarts);
  EXPECT_EQ(first.max_final_delta, second.max_final_delta);
  EXPECT_EQ(first.mean_final_delta, second.mean_final_delta);
  EXPECT_EQ(first.metrics.slots_executed, second.metrics.slots_executed);
  EXPECT_EQ(first.metrics.total_transmissions, second.metrics.total_transmissions);
}

TEST(Determinism, TracingDoesNotPerturbThePlainRun) {
  // The observability layer must be a pure read: attaching a trace + metrics
  // sink to a run may not change a single byte of its report, on any medium.
  // (Emission sites never touch the RNG stream; this is the dynamic check of
  // that claim.)
  const auto g = scenario_graph(82);
  core::MwRunConfig fading;
  fading.fading.kind = sinr::FadingKind::kLogNormal;
  core::MwRunConfig graph_medium;
  graph_medium.graph_model = true;
  for (core::MwRunConfig cfg : {core::MwRunConfig{}, fading, graph_medium}) {
    SCOPED_TRACE(cfg.graph_model       ? "graph"
                 : cfg.fading.enabled() ? "sinr+fading"
                                        : "sinr");
    cfg.seed = 77;
    const std::string untraced = core::to_json(core::run_mw_coloring(g, cfg));

    obs::RunObservation observation(std::size_t{1} << 22);
    core::MwInstance instance(g, cfg);
    instance.attach_observation(&observation);
    const std::string traced = core::to_json(instance.run());
    EXPECT_EQ(untraced, traced);
    EXPECT_GT(observation.trace.recorded(), 0u);  // the sink did observe
  }
}

TEST(Determinism, TracingDoesNotPerturbTheRecoveryRun) {
  const auto g = scenario_graph(83);
  core::MwRunConfig cfg;
  cfg.seed = 4321;
  cfg.recovery.enabled = true;
  cfg.failure_fraction = 0.05;
  cfg.failure_window = 150;
  cfg.recovery.join_fraction = 0.10;
  cfg.recovery.join_at = 80;
  cfg.recovery.join_window = 120;
  const std::string untraced = core::to_json(robust::run_recovering_mw(g, cfg));

  obs::RunObservation observation(std::size_t{1} << 22);
  robust::RecoveryInstance instance(g, cfg);
  instance.attach_observation(&observation);
  const std::string traced = core::to_json(instance.run());
  EXPECT_EQ(untraced, traced);
  EXPECT_GT(observation.trace.recorded(), 0u);
}

TEST(Determinism, ObservedReportIsByteStable) {
  // Same seed, sink attached both times: the full report INCLUDING the
  // observability section (trace totals + metrics registry) must match
  // byte for byte — the registry iterates in std::map order by design. The
  // SINR margin histogram is record-order-sensitive (its sum is a running
  // float accumulation), so every resolve kind runs: the engine kinds record
  // margins listener by listener, the naive oracle sender by sender.
  const auto g = scenario_graph(84);
  core::MwRunConfig cfg;
  cfg.seed = 100;
  const auto observed_run = [&]() {
    obs::RunObservation observation(std::size_t{1} << 20);
    core::MwInstance instance(g, cfg);
    instance.attach_observation(&observation);
    const auto result = instance.run();
    return core::to_json(result, observation, true);
  };
  for (const sinr::ResolveKind kind :
       {sinr::ResolveKind::kNaive, sinr::ResolveKind::kField,
        sinr::ResolveKind::kSimd}) {
    cfg.resolve = kind;
    EXPECT_EQ(observed_run(), observed_run()) << sinr::to_string(kind);
  }
}

TEST(Determinism, TraceIsIdenticalUnderEveryResolveKind) {
  // Receptions reach on_receive, and the trace, in listener-ascending order
  // whatever order the medium reports them in: the naive oracle emits its
  // decodes sender by sender, the field engines listener by listener. The
  // three kinds must therefore record the same events in the same order.
  const auto g = scenario_graph(87);
  core::MwRunConfig cfg;
  cfg.seed = 3;
  const auto traced_events = [&](sinr::ResolveKind kind) {
    cfg.resolve = kind;
    obs::RunObservation observation(std::size_t{1} << 22);
    core::MwInstance instance(g, cfg);
    instance.attach_observation(&observation);
    instance.run();
    EXPECT_EQ(observation.trace.dropped(), 0u) << sinr::to_string(kind);
    return observation.trace.events();
  };
  const std::vector<obs::TraceEvent> naive =
      traced_events(sinr::ResolveKind::kNaive);
  ASSERT_FALSE(naive.empty());
  for (const sinr::ResolveKind kind :
       {sinr::ResolveKind::kField, sinr::ResolveKind::kSimd}) {
    const std::vector<obs::TraceEvent> other = traced_events(kind);
    ASSERT_EQ(naive.size(), other.size()) << sinr::to_string(kind);
    const auto [a, b] =
        std::mismatch(naive.begin(), naive.end(), other.begin());
    EXPECT_TRUE(a == naive.end())
        << sinr::to_string(kind) << " diverges at event " << (a - naive.begin())
        << ": slot " << a->slot << " kind " << obs::to_string(a->kind)
        << " node " << a->node << " vs slot " << b->slot << " kind "
        << obs::to_string(b->kind) << " node " << b->node;
  }
}

TEST(Determinism, DifferentSeedsProduceDifferentTraffic) {
  // Sanity counterpart: the byte-stability above is not vacuous (the report
  // does depend on the seed).
  const auto g = scenario_graph(81);
  core::MwRunConfig cfg;
  cfg.seed = 1;
  const std::string first = core::to_json(core::run_mw_coloring(g, cfg));
  cfg.seed = 2;
  const std::string second = core::to_json(core::run_mw_coloring(g, cfg));
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace sinrcolor
