// Deterministic parallel trial-sweep engine.
//
// The unit of real work in this repo is not one protocol run but the *trial
// sweep*: every figure the paper's w.h.p. bounds justify is a many-seed
// aggregate, and every experiment harness (bench/x*) runs dozens of
// independent (topology, protocol, seed) trials. Trials are embarrassingly
// parallel; what makes naive parallelism unacceptable here is
// nondeterminism. The engine runs trials concurrently on a common::TaskPool
// while keeping results BYTE-IDENTICAL for every thread count:
//
//   1. Trial i's randomness derives from (base_seed, i) alone — trial_seed()
//      is a splitmix-style derivation, so the stream is independent of how
//      many trials run, which thread claims trial i, and in what order
//      trials execute (tests/sweep_test.cpp pins all three).
//   2. Each trial writes only to its own pre-sized result slot; trials share
//      no mutable state (a graph built before the sweep and only read by
//      the trials is fine, as in `sinrcolor_cli sweep --shared-topology`).
//   3. Reduction happens AFTER the join, in trial-index order, so even
//      order-sensitive float accumulation matches a serial sweep exactly.
//
// Wall-clock timing is the ONLY nondeterministic output (SweepTiming); keep
// it out of byte-compared files — CSV/JSON artifacts must carry only trial
// results.
//
// This is the repo's one thread pool: a run resolves every slot on its own
// thread, so parallelism lives between trials (docs/PERFORMANCE.md, "One
// thread pool"). Every harness takes the trial width from `--threads`.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/task_pool.h"

namespace sinrcolor::common {

/// Independent child seed for trial `trial_index` of a sweep rooted at
/// `base_seed`. Domain-separated from derive_seed(seed, node) — a trial
/// stream can never collide with a per-node stream of the same seed — and a
/// pure function of its two arguments.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial_index);

/// What a trial callback learns about its identity. `seed` is
/// trial_seed(base_seed, index); trials must draw all randomness from it.
struct TrialContext {
  std::size_t index = 0;
  std::uint64_t seed = 0;
};

/// Per-trial wall clock (steady_clock microseconds), in trial order, plus
/// the sweep's overall wall time. Reporting only — never byte-compared.
struct SweepTiming {
  std::vector<std::uint64_t> trial_us;
  std::uint64_t total_us = 0;  ///< whole-sweep wall time (not the trial sum)

  std::uint64_t sum_us() const;
  double mean_us() const;
  /// Exact empirical quantile over trial_us (nearest rank), q in [0, 1].
  std::uint64_t quantile_us(double q) const;
  std::uint64_t p50_us() const { return quantile_us(0.5); }
  std::uint64_t p95_us() const { return quantile_us(0.95); }
  std::uint64_t max_us() const;
};

/// Runs independent trials concurrently and merges in trial order.
/// `threads` = 1 (the default everywhere) executes inline with no pool and
/// no synchronization, so serial sweeps cost nothing extra.
///
/// Thread contract: the engine itself holds no lock-guarded state — both
/// members are set in the constructor and immutable afterwards; all
/// synchronization lives in the owned TaskPool (annotated in task_pool.h).
/// Trials write only to their pre-sized result slot (`results[i]`), which is
/// race-free by construction: slots are disjoint and the pool's job join
/// provides the happens-before edge back to the caller. What the trial
/// callback does is the caller's obligation — share nothing mutable except
/// internally-synchronized sinks (obs::Tracer, obs::Counter), and read
/// shared inputs such as a graph only; tests/concurrency_stress_test.cpp
/// runs both patterns under TSan.
class SweepEngine {
 public:
  explicit SweepEngine(std::size_t threads);

  std::size_t thread_count() const { return threads_; }

  /// Invokes fn(TrialContext) for trials 0..count-1, possibly concurrently,
  /// and returns the results indexed by trial. fn must not throw and must
  /// not touch shared mutable state; its result type must be default-
  /// constructible and movable. `timing`, when non-null, receives per-trial
  /// and total wall microseconds.
  template <typename Fn>
  auto run(std::size_t count, std::uint64_t base_seed, Fn&& fn,
           SweepTiming* timing = nullptr)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const TrialContext&>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, const TrialContext&>>;
    std::vector<R> results(count);
    if (timing != nullptr) timing->trial_us.assign(count, 0);
    const auto sweep_start = std::chrono::steady_clock::now();
    run_trials(count, [&](std::size_t i) {
      const TrialContext ctx{i, trial_seed(base_seed, i)};
      const auto trial_start = std::chrono::steady_clock::now();
      results[i] = fn(ctx);
      if (timing != nullptr) {
        timing->trial_us[i] = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - trial_start)
                .count());
      }
    });
    if (timing != nullptr) {
      timing->total_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - sweep_start)
              .count());
    }
    return results;
  }

 private:
  /// One TaskPool shard per trial (fn runs exactly once per index; only the
  /// trial-to-worker assignment varies between runs, never any result).
  void run_trials(std::size_t count,
                  const std::function<void(std::size_t)>& fn);

  std::size_t threads_;
  std::unique_ptr<TaskPool> pool_;  ///< null when threads_ == 1
};

}  // namespace sinrcolor::common
