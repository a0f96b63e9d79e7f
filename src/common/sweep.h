// Deterministic parallel trial-sweep engine.
//
// The unit of real work in this repo is not one protocol run but the *trial
// sweep*: every figure the paper's w.h.p. bounds justify is a many-seed
// aggregate, and every experiment harness (bench/x*) runs dozens of
// independent (topology, protocol, seed) trials. Trials are embarrassingly
// parallel; what makes naive parallelism unacceptable here is
// nondeterminism. The engine runs trials concurrently while keeping results
// BYTE-IDENTICAL for every thread count:
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
// This is the repo's only parallelism: a run resolves every slot on its own
// thread, so parallelism lives between trials. Each run() is a scoped
// fork-join — its threads start with the sweep and are joined before it
// returns, so no worker outlives a sweep (docs/PERFORMANCE.md, "One thread
// pool"). Every harness takes the trial width from `--threads`, read by
// sweep_threads().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sinrcolor::common {

class Cli;

/// The widest trial sweep a front end accepts: `--threads` above it is a
/// usage error, so a typo never asks the OS for thousands of threads.
inline constexpr std::int64_t kMaxSweepThreads = 256;

/// Reads `--threads=N` (default 1), the trial width of a SweepEngine, and
/// exits with a usage error unless 1 ≤ N ≤ kMaxSweepThreads. The one
/// `--threads` reader of every front end. Results are byte-identical for
/// every value; only wall time changes.
std::size_t sweep_threads(const Cli& cli);

/// The most trials a front end sweeps: SweepEngine::run sizes its result
/// and timing vectors to the count before the first trial, so an unbounded
/// count would abort on std::bad_alloc instead of failing as a usage error.
inline constexpr std::int64_t kMaxSweepTrials = 100'000;

/// Reads a trial count (`--trials`, `--seeds`, `--reps`: `name`), default
/// `default_value`, and exits with a usage error unless
/// 1 ≤ N ≤ kMaxSweepTrials. The one reader of every count a sweep sizes.
std::size_t sweep_trials(const Cli& cli, const std::string& name,
                         std::int64_t default_value);

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
/// A sweep of `count` trials at width `threads` forks min(threads, count) − 1
/// std::jthreads; they and the calling thread claim trial indices from one
/// atomic counter, and all are joined before run() returns. Width 1 (the
/// default everywhere) and one-trial sweeps run inline on the caller's
/// thread with no synchronization, so serial sweeps cost nothing extra.
///
/// Thread contract: the engine holds no state beyond its width, so
/// distinct engines (or distinct sweeps) never interact. Thread start orders
/// everything the caller did before run() — e.g. building a shared graph —
/// ahead of every trial's reads, and the join orders every trial's writes to
/// its pre-sized result slot (`results[i]`, disjoint by construction) ahead
/// of the caller's reads. What the trial callback does is the caller's
/// obligation — share nothing mutable except internally-synchronized sinks
/// (obs::Tracer, obs::Counter), and read shared inputs such as a graph only;
/// tests/concurrency_stress_test.cpp runs both patterns under TSan.
class SweepEngine {
 public:
  /// `threads` is clamped to ≥ 1 and counts the calling thread.
  explicit SweepEngine(std::size_t threads);

  std::size_t thread_count() const { return threads_; }

  /// Invokes fn(TrialContext) for trials 0..count-1, possibly concurrently,
  /// and returns the results indexed by trial. fn must not throw and must
  /// not touch shared mutable state; its result type must be default-
  /// constructible and movable. `timing`, when non-null, receives per-trial
  /// and total wall microseconds.
  template <typename Fn>
  auto run(std::size_t count, std::uint64_t base_seed, Fn&& fn,
           SweepTiming* timing = nullptr) const
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const TrialContext&>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, const TrialContext&>>;
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs results into shared words, so "
                  "concurrent trials would race; return an integer instead");
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
  /// The fork-join: fn(i) runs exactly once per index in [0, count); only
  /// the trial-to-thread assignment varies between runs, never any result.
  void run_trials(std::size_t count,
                  const std::function<void(std::size_t)>& fn) const;

  std::size_t threads_;
};

}  // namespace sinrcolor::common
