// Many-thread hammer for the concurrency surface behind the determinism
// claim: TaskPool submit/drain, trials reading one shared graph, and
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
#include "common/task_pool.h"
#include "core/mw_protocol.h"
#include "core/report.h"
#include "geometry/deployment.h"
#include "graph/unit_disk_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sinrcolor {
namespace {

// --- TaskPool: submit/drain hammer -----------------------------------------

TEST(TaskPoolStressTest, RepeatedJobsConserveEveryShard) {
  common::TaskPool pool(8);
  constexpr std::size_t kJobs = 200;
  constexpr std::size_t kShards = 64;
  std::atomic<std::uint64_t> total{0};
  for (std::size_t job = 0; job < kJobs; ++job) {
    std::vector<std::uint64_t> hits(kShards, 0);
    pool.run_shards(kShards, [&](std::size_t s) {
      hits[s] += 1;  // disjoint slots — race-free by construction
      total.fetch_add(s + 1, std::memory_order_relaxed);
    });
    // The join in run_shards is the happens-before edge that lets the
    // caller read every shard's slot without further synchronization.
    for (std::size_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(hits[s], 1u) << "shard " << s << " ran " << hits[s]
                             << " times in job " << job;
    }
  }
  EXPECT_EQ(total.load(), kJobs * (kShards * (kShards + 1)) / 2);
}

TEST(TaskPoolStressTest, UnevenShardCountsDrainCompletely) {
  common::TaskPool pool(4);
  // Shard counts below, equal to, and far above the thread count, including
  // the inline shards==1 fast path, back to back on one pool.
  for (std::size_t shards : {1u, 3u, 4u, 5u, 64u, 257u}) {
    std::atomic<std::uint64_t> ran{0};
    pool.run_shards(shards, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), shards);
  }
}

TEST(TaskPoolStressTest, PoolConstructionTeardownChurn) {
  // Start/stop storms: workers parked in worker_loop must see stop_ and
  // exit cleanly even when the pool dies immediately or mid-traffic.
  for (int round = 0; round < 40; ++round) {
    common::TaskPool pool(8);
    if (round % 2 == 0) continue;  // destroy without ever submitting
    std::atomic<std::uint64_t> ran{0};
    pool.run_shards(16, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 16u);
  }
}

TEST(TaskPoolStressTest, ManyPoolsRunConcurrently) {
  // run_shards is not reentrant per pool, but distinct pools must not
  // interfere: drive four pools from four independent submitter threads.
  constexpr std::size_t kSubmitters = 4;
  std::vector<std::uint64_t> totals(kSubmitters, 0);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&totals, t] {
      common::TaskPool pool(3);
      std::atomic<std::uint64_t> sum{0};
      for (int job = 0; job < 50; ++job) {
        pool.run_shards(32, [&](std::size_t s) {
          sum.fetch_add(s, std::memory_order_relaxed);
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
