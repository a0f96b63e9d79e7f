// Profiler suite: phase naming, the quantile machinery, the PhaseScope
// null-guard and nesting contract, thread-safe recording, and the headline
// determinism guarantee — a profiled run's RESULT is byte-identical to the
// unprofiled run on every medium (wall time never leaks into artifacts).
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/metrics.h"
#include "obs/observation.h"
#include "obs/profiler.h"
#include "robust/recovery_protocol.h"

namespace sinrcolor {
namespace {

TEST(PhaseNames, StableUniqueAndBoundsChecked) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const std::string name = obs::to_string(static_cast<obs::Phase>(i));
    EXPECT_NE(name, "?") << i;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), obs::kPhaseCount);  // no duplicate wire names
  EXPECT_STREQ(obs::to_string(static_cast<obs::Phase>(obs::kPhaseCount)), "?");
  EXPECT_STREQ(obs::to_string(obs::Phase::kSlot), "slot");
  EXPECT_STREQ(obs::to_string(obs::Phase::kFieldAccum), "field_accum");
}

TEST(HistogramQuantile, UpperBoundSemantics) {
  obs::Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0.0);  // empty histogram
  h.record(0.5);
  h.record(1.5);
  h.record(3.0);
  h.record(10.0);
  // rank(0.5) = ceil(0.5*4) = 2 -> second sample -> bucket (1,2] edge.
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.5), 2.0);
  // rank(0.95) = 4 -> overflow bucket -> exact max, not an edge.
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.95), 10.0);
  // rank(0.0) clamps to the first sample's bucket.
  EXPECT_DOUBLE_EQ(h.quantile_upper_bound(0.0), 1.0);
}

TEST(Profiler, RecordAggregatesAndQuantilesArePowerOfTwoEdges) {
  obs::Profiler profiler;
  EXPECT_EQ(profiler.recorded(), 0u);
  // record() takes nanoseconds; the snapshot reports whole microseconds.
  profiler.record(obs::Phase::kSlot, 3'000, 3'000);
  profiler.record(obs::Phase::kSlot, 1'000'000, 900'000);
  const auto snap = profiler.stats(obs::Phase::kSlot);
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.total_us, 1003u);
  EXPECT_EQ(snap.self_us, 903u);
  EXPECT_EQ(snap.max_us, 1000u);
  // Log-spaced power-of-two microsecond buckets: 3 -> edge 4, 1000 -> 1024.
  EXPECT_DOUBLE_EQ(snap.p50_us, 4.0);
  EXPECT_DOUBLE_EQ(snap.p95_us, 1024.0);
  EXPECT_EQ(profiler.recorded(), 2u);
  // Untouched phases stay zero.
  EXPECT_EQ(profiler.stats(obs::Phase::kResolve).count, 0u);
}

TEST(Profiler, WriteJsonOmitsSilentPhases) {
  obs::Profiler profiler;
  profiler.record(obs::Phase::kResolve, 10, 10);
  const std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"resolve\""), std::string::npos);
  EXPECT_EQ(json.find("\"slot\""), std::string::npos);
  EXPECT_NE(json.find("\"p95_us\""), std::string::npos);
}

TEST(PhaseScope, NullProfilerIsANoOp) {
  // Must not touch the thread-local stack or any clock.
  EXPECT_EQ(obs::detail::profile_stack().depth, 0u);
  {
    SINRCOLOR_PROFILE(static_cast<obs::Profiler*>(nullptr),
                      obs::Phase::kSlot);
    EXPECT_EQ(obs::detail::profile_stack().depth, 0u);
  }
  EXPECT_EQ(obs::detail::profile_stack().depth, 0u);
}

TEST(PhaseScope, NestedScopesSplitSelfFromTotal) {
  obs::Profiler profiler;
  {
    SINRCOLOR_PROFILE(&profiler, obs::Phase::kSlot);
    {
      SINRCOLOR_PROFILE(&profiler, obs::Phase::kResolve);
      // Burn a little measurable time inside the child.
      volatile std::uint64_t sink = 0;
      for (int i = 0; i < 50000; ++i) {
        sink = sink + static_cast<std::uint64_t>(i);
      }
    }
  }
  EXPECT_EQ(obs::detail::profile_stack().depth, 0u);
  const auto outer = profiler.stats(obs::Phase::kSlot);
  const auto inner = profiler.stats(obs::Phase::kResolve);
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_LE(outer.self_us, outer.total_us);
  EXPECT_LE(inner.self_us, inner.total_us);
  // The child is entirely enclosed, so the parent's total covers it and the
  // parent's self time has it subtracted.
  EXPECT_GE(outer.total_us, inner.total_us);
  EXPECT_LE(outer.self_us, outer.total_us - inner.total_us + 1);
}

TEST(PhaseScope, SubMicrosecondScopesKeepTheirTime) {
  // Each scope spins for at least 500 ns. Truncating every scope to whole
  // microseconds before summing would lose almost all of it; accumulating
  // nanoseconds must report at least half a microsecond per scope.
  obs::Profiler profiler;
  constexpr std::uint64_t kScopes = 2000;
  for (std::uint64_t i = 0; i < kScopes; ++i) {
    SINRCOLOR_PROFILE(&profiler, obs::Phase::kProtocolStep);
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::nanoseconds(500)) {
    }
  }
  const auto snap = profiler.stats(obs::Phase::kProtocolStep);
  EXPECT_EQ(snap.count, kScopes);
  EXPECT_GE(snap.total_us, kScopes / 2);
  EXPECT_GE(snap.self_us, kScopes / 2);
}

TEST(PhaseScope, DepthOverflowStillRecordsTotals) {
  obs::Profiler profiler;
  // Recurse past ProfileStack::kMaxDepth: deeper scopes skip the self-time
  // split but every scope must still be counted, and the stack must unwind
  // cleanly back to zero.
  constexpr std::size_t kDepth = obs::detail::ProfileStack::kMaxDepth + 4;
  const auto recurse = [&](const auto& self, std::size_t remaining) -> void {
    if (remaining == 0) return;
    SINRCOLOR_PROFILE(&profiler, obs::Phase::kProtocolStep);
    self(self, remaining - 1);
  };
  recurse(recurse, kDepth);
  EXPECT_EQ(profiler.recorded(), kDepth);
  EXPECT_EQ(profiler.stats(obs::Phase::kProtocolStep).count, kDepth);
  EXPECT_EQ(obs::detail::profile_stack().depth, 0u);
}

TEST(Profiler, ConcurrentRecordIsLossless) {
  obs::Profiler profiler;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&profiler] {
      for (int i = 0; i < kPerThread; ++i) {
        SINRCOLOR_PROFILE(&profiler, obs::Phase::kFieldAccum);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = profiler.stats(obs::Phase::kFieldAccum);
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(obs::detail::profile_stack().depth, 0u);
}

// --- the determinism guarantee ----------------------------------------------

core::MwRunResult run_once(
    const graph::UnitDiskGraph& g, const core::MwRunConfig& cfg,
    bool profiled, std::optional<obs::Phase> expect_resolve = std::nullopt) {
  core::MwInstance instance(g, cfg);
  obs::RunObservation observation;
  if (profiled) {
    observation.enable_profiler();
    instance.attach_observation(&observation);
  }
  auto result = instance.run();
  if (profiled) {
    // Non-vacuity: the profiler actually saw the run it was attached to.
    EXPECT_GT(observation.profiler->recorded(), 0u);
    EXPECT_GT(observation.profiler->stats(obs::Phase::kSlot).count, 0u);
    EXPECT_GT(observation.profiler->stats(obs::Phase::kRun).count, 0u);
    if (expect_resolve.has_value()) {
      // The SINR media's resolve kernel opens its own scope — kNaiveResolve
      // for the naive oracle, one kFieldAccum per engine resolve — and it
      // must still fire when a profiler is attached.
      EXPECT_GT(observation.profiler->stats(*expect_resolve).count, 0u)
          << obs::to_string(*expect_resolve);
    }
  }
  return result;
}

TEST(ProfiledDeterminism, ResultsAreByteIdenticalOnAllMedia) {
  common::Rng rng(2024);
  const graph::UnitDiskGraph g(geometry::uniform_deployment(40, 2.8, rng),
                               1.0);
  struct MediumCase {
    const char* name;
    bool graph_model;
    bool fading;
  };
  const MediumCase media[] = {
      {"sinr", false, false},
      {"sinr+fading", false, true},
      {"graph", true, false},
  };
  for (const auto& medium : media) {
    core::MwRunConfig cfg;
    cfg.seed = 77;
    cfg.graph_model = medium.graph_model;
    if (medium.fading) cfg.fading.kind = sinr::FadingKind::kLogNormal;
    for (const sinr::ResolveKind kind :
         {sinr::ResolveKind::kNaive, sinr::ResolveKind::kField,
          sinr::ResolveKind::kSimd}) {
      cfg.resolve = kind;
      // Each SINR kind opens its own resolve scope; the graph medium ignores
      // the kind and opens none.
      std::optional<obs::Phase> resolve_phase;
      if (!medium.graph_model) {
        resolve_phase = kind == sinr::ResolveKind::kNaive
                            ? obs::Phase::kNaiveResolve
                            : obs::Phase::kFieldAccum;
      }
      const auto plain = run_once(g, cfg, /*profiled=*/false);
      const auto profiled = run_once(g, cfg, /*profiled=*/true, resolve_phase);
      EXPECT_EQ(core::to_json(plain), core::to_json(profiled))
          << medium.name << " " << sinr::to_string(kind);
    }
  }
}

TEST(ProfiledDeterminism, RecoveryRunIsByteIdenticalToo) {
  common::Rng rng(5);
  const graph::UnitDiskGraph g(geometry::uniform_deployment(25, 2.2, rng),
                               1.0);
  core::MwRunConfig cfg;
  cfg.seed = 11;
  cfg.recovery.enabled = true;

  const auto run = [&](bool profiled) {
    robust::RecoveryInstance instance(g, cfg);
    obs::RunObservation observation;
    if (profiled) {
      observation.enable_profiler();
      instance.attach_observation(&observation);
    }
    auto result = instance.run();
    if (profiled) {
      EXPECT_GT(observation.profiler->stats(obs::Phase::kRecovery).count, 0u);
    }
    return result;
  };
  EXPECT_EQ(core::to_json(run(false)), core::to_json(run(true)));
}

}  // namespace
}  // namespace sinrcolor
