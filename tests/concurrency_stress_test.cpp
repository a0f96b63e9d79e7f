// Many-thread hammer for the concurrency surface behind the determinism
// claim: SweepEngine's fork-join, trials reading one shared graph, and
// parallel trace/metrics emission during a threaded SweepEngine run. The
// assertions here are deliberately simple (conservation counts,
// byte-identical results) — the real teeth are the TSan tier
// (SINRCOLOR_SANITIZE=thread, CI job tsan-smoke), which holds every
// interleaving this suite provokes to zero data-race reports with zero
// suppressions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sweep.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sinrcolor {
namespace {

// --- SweepEngine: fork-join hammer ------------------------------------------
//
// Every sweep forks its threads and joins them before returning, so these
// tests start at most 8 live threads at a time (the calling thread counts
// toward an engine's width).

TEST(SweepEngineStressTest, RepeatedSweepsRunEveryTrialExactlyOnce) {
  const common::SweepEngine engine(8);
  constexpr std::size_t kSweeps = 200;
  constexpr std::size_t kTrials = 64;
  std::atomic<std::uint64_t> total{0};
  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    std::vector<std::uint64_t> hits(kTrials, 0);
    engine.run(kTrials, sweep, [&](const common::TrialContext& ctx) {
      hits[ctx.index] += 1;  // disjoint slots — race-free by construction
      total.fetch_add(ctx.index + 1, std::memory_order_relaxed);
      return 0;
    });
    // The join in run is the happens-before edge that lets the caller read
    // every trial's slot without further synchronization.
    for (std::size_t i = 0; i < kTrials; ++i) {
      ASSERT_EQ(hits[i], 1u) << "trial " << i << " ran " << hits[i]
                             << " times in sweep " << sweep;
    }
  }
  EXPECT_EQ(total.load(), kSweeps * (kTrials * (kTrials + 1)) / 2);
}

TEST(SweepEngineStressTest, UnevenTrialCountsDrainCompletely) {
  const common::SweepEngine engine(4);
  // Trial counts below, equal to, and far above the width, including the
  // inline one-trial path, back to back on one engine.
  for (std::size_t trials : {1u, 3u, 4u, 5u, 64u, 257u}) {
    std::atomic<std::uint64_t> ran{0};
    engine.run(trials, 7, [&](const common::TrialContext&) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return 0;
    });
    EXPECT_EQ(ran.load(), trials);
  }
}

TEST(SweepEngineStressTest, ManyEnginesRunConcurrently) {
  // Distinct engines must not interfere: four submitter threads each drive
  // their own 2-wide engine at once.
  constexpr std::size_t kSubmitters = 4;
  std::vector<std::uint64_t> totals(kSubmitters, 0);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&totals, t] {
      const common::SweepEngine engine(2);
      std::atomic<std::uint64_t> sum{0};
      for (int sweep = 0; sweep < 50; ++sweep) {
        engine.run(32, t, [&](const common::TrialContext& ctx) {
          sum.fetch_add(ctx.index, std::memory_order_relaxed);
          return 0;
        });
      }
      totals[t] = sum.load();
    });
  }
  for (std::thread& s : submitters) s.join();
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    EXPECT_EQ(totals[t], 50u * (31u * 32u) / 2u);
  }
}

// --- One graph read by concurrent trials ------------------------------------

TEST(SharedGraphStressTest, ConcurrentTrialsReadOneGraph) {
  // `sinrcolor_cli sweep --shared-topology` builds one graph per size before
  // the sweep and lets every trial thread read it. A UnitDiskGraph is never
  // mutated after construction, so 4-wide trials must report exactly what
  // serial trials report.
  common::Rng rng(9);
  const graph::UnitDiskGraph g(geometry::uniform_deployment(60, 5.0, rng),
                               1.0);
  const auto sweep = [&g](std::size_t threads) {
    common::SweepEngine engine(threads);
    return engine.run(8, /*base_seed=*/42,
                      [&g](const common::TrialContext& ctx) {
                        core::MwRunConfig cfg;
                        cfg.seed = ctx.seed;
                        return core::to_json(core::run_mw_coloring(g, cfg));
                      });
  };
  const auto serial = sweep(1);
  const auto threaded = sweep(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "trial " << i;
  }
}

// --- Shared obs sinks under a threaded SweepEngine run ----------------------

TEST(SharedSinkStressTest, ParallelTraceAndMetricsEmission) {
  // Trials running 4-wide emit into ONE tracer and ONE registry. The tracer
  // ring is internally synchronized and the counters are atomic, so nothing
  // is lost; per-trial RESULTS still come only from the trial seed, so the
  // result vector stays byte-identical to a serial run.
  constexpr std::size_t kTrials = 64;
  constexpr std::size_t kEventsPerTrial = 50;

  const auto sweep = [&](std::size_t threads, obs::Tracer& tracer,
                         obs::MetricsRegistry& metrics) {
    common::SweepEngine engine(threads);
    return engine.run(kTrials, /*base_seed=*/42,
                      [&](const common::TrialContext& ctx) {
                        common::Rng rng(ctx.seed);
                        std::uint64_t acc = 0;
                        for (std::size_t e = 0; e < kEventsPerTrial; ++e) {
                          acc ^= rng();
                          tracer.record(static_cast<obs::Slot>(e),
                                        obs::EventKind::kTx,
                                        static_cast<obs::NodeId>(ctx.index));
                        }
                        metrics.counter("stress.trials").add();
                        metrics.counter("stress.events").add(kEventsPerTrial);
                        return acc;
                      });
  };

  obs::Tracer serial_trace(/*capacity=*/kTrials * kEventsPerTrial);
  obs::MetricsRegistry serial_metrics;
  const auto serial = sweep(1, serial_trace, serial_metrics);

  obs::Tracer threaded_trace(/*capacity=*/kTrials * kEventsPerTrial);
  obs::MetricsRegistry threaded_metrics;
  const auto threaded = sweep(4, threaded_trace, threaded_metrics);

  // Conservation: every emission from every thread landed.
  EXPECT_EQ(threaded_trace.recorded(), kTrials * kEventsPerTrial);
  EXPECT_EQ(threaded_trace.dropped(), 0u);
  EXPECT_EQ(threaded_metrics.counter("stress.trials").value(), kTrials);
  EXPECT_EQ(threaded_metrics.counter("stress.events").value(),
            kTrials * kEventsPerTrial);
  EXPECT_EQ(serial_trace.recorded(), threaded_trace.recorded());
  EXPECT_EQ(serial_metrics.counter("stress.trials").value(),
            threaded_metrics.counter("stress.trials").value());

  // Determinism: shared sinks never feed back into trial results.
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "trial " << i;
  }
}

TEST(SharedSinkStressTest, ConcurrentCounterRegistrationIsLossFree) {
  // Registration races on the SAME names from many threads: the registry
  // lock serializes map mutation and every handed-out reference stays valid.
  obs::MetricsRegistry metrics;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics, t] {
      for (std::size_t i = 0; i < kIncrements; ++i) {
        metrics.counter("shared").add();
        metrics.counter("per-thread." + std::to_string(t)).add();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(metrics.counter("shared").value(), kThreads * kIncrements);
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(metrics.counter("per-thread." + std::to_string(t)).value(),
              kIncrements);
  }
}

TEST(SharedSinkStressTest, TracerRingOverflowUnderConcurrentEmission) {
  // A ring smaller than the emission volume: drop-oldest accounting must
  // stay exact even when overwrites race with fresh appends.
  obs::Tracer tracer(/*capacity=*/128);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kEvents = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::size_t e = 0; e < kEvents; ++e) {
        tracer.record(static_cast<obs::Slot>(e), obs::EventKind::kTx,
                      static_cast<obs::NodeId>(t));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kEvents);
  EXPECT_EQ(tracer.size(), 128u);
  EXPECT_EQ(tracer.dropped(), tracer.recorded() - 128u);
  EXPECT_EQ(tracer.events().size(), 128u);
}

}  // namespace
}  // namespace sinrcolor
