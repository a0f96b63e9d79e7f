// Hierarchical slot-phase profiler: where does a slot's time actually go?
//
// A driver that wants phase timing enables the Profiler on its
// RunObservation; instrumented code brackets each phase with a RAII
// PhaseScope (via SINRCOLOR_PROFILE). Scopes nest through a thread-local
// frame stack, so every phase accumulates both TOTAL time (scope entry to
// exit) and SELF time (total minus the time spent in enclosed scopes) —
// kSlot's self time is the slot-loop overhead left after kTxDecide /
// kResolve / kDeliver / kEndSlot are subtracted out.
//
// Resolution: scopes are timed, nested and accumulated in steady_clock
// nanoseconds, so a phase of many sub-microsecond scopes (protocol_step)
// sums to its true time instead of truncating each scope to whole
// microseconds. The reports keep their `*_us` fields, converted only when a
// snapshot or the JSON is taken.
//
// Null-guard discipline (same as SINRCOLOR_TRACE): with a null Profiler* the
// scope constructor is one pointer test — no clock read, no stack push, no
// lock. Profiler-off runs stay within the ≤2% overhead budget measured on
// x2_time_vs_n (docs/OBSERVABILITY.md).
//
// Determinism: the profiler only ever READS clocks and writes its own
// sidecar-bound stats; it never touches an RNG stream or a result artifact.
// Profiled and unprofiled same-seed runs are byte-identical
// (tests/profiler_test.cpp). Wall time lives ONLY here, in sidecars and on
// stdout — the steady_clock use is allowlisted under sinrlint R7.
//
// Thread contract (PR 7 regime, checked by clang -Wthread-safety):
//   * record() is internally synchronized (mutex_). Nothing inside a run
//     calls it concurrently: every scope of a run, kFieldAccum included,
//     opens on the simulator's thread, so a lock-free per-phase accumulator
//     would serve a single run (ROADMAP 1(b));
//   * the frame stack is thread_local, so nesting is tracked per thread: a
//     scope opened on another thread roots its own stack and its time is NOT
//     subtracted from any other thread's enclosing scope;
//   * snapshot accessors (stats(), write_json()) lock the same mutex and may
//     run concurrently with record(), but the usual call site is quiescent
//     (after the run).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "common/mutex.h"
#include "common/thread_safety.h"
#include "obs/metrics.h"

namespace sinrcolor::common {
class JsonWriter;
}

namespace sinrcolor::obs {

/// The phase taxonomy (docs/OBSERVABILITY.md). Values are wire order: the
/// JSON `profile` block and the Perfetto tracks list phases in this order.
enum class Phase : std::uint8_t {
  kTrial,         ///< one SweepEngine trial body (recorded by MetricsSidecar)
  kRun,           ///< MwInstance / RecoveryInstance::run end to end
  kSlot,          ///< one radio::Simulator slot iteration
  kFaultInject,   ///< FaultEngine work: disturbance query + delivery drops
  kTxDecide,      ///< failures/joins/wakes + every protocol begin_slot
  kResolve,       ///< InterferenceModel::resolve (any kind)
  kFieldAccum,    ///< one FieldEngine resolve: F(u) sums + candidate pass
  kNaiveResolve,  ///< the naive per-(sender, listener) oracle loops
  kDeliver,       ///< listener-ordered delivery: one on_receive per decode
  kProtocolStep,  ///< one MwNode::begin_slot (inside kTxDecide)
  kRecovery,      ///< one SelfHealingNode::begin_slot (wraps kProtocolStep)
  kEndSlot,       ///< decision tracking + end-of-slot observers
};

inline constexpr std::size_t kPhaseCount = 12;

/// Stable wire name ("slot", "field_accum", ...); "?" for out-of-range.
const char* to_string(Phase phase);

/// Thread-safe per-phase accumulator. One instance per observed run,
/// owned by RunObservation (null pointer = profiling off).
class Profiler {
 public:
  Profiler();

  /// One closed scope of `phase`: `total_ns` entry-to-exit, `self_ns` with
  /// enclosed scopes subtracted, both in steady_clock nanoseconds. Safe from
  /// any thread.
  void record(Phase phase, std::uint64_t total_ns, std::uint64_t self_ns)
      SINRCOLOR_EXCLUDES(mutex_);

  /// Copyable snapshot of one phase's stats, converted from the accumulated
  /// nanoseconds to whole microseconds (floor) at snapshot time. Quantiles
  /// are bucket upper bounds from the shared log-spaced microsecond
  /// histogram (Histogram::quantile_upper_bound — the MetricsRegistry
  /// machinery).
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t total_us = 0;
    std::uint64_t self_us = 0;
    std::uint64_t max_us = 0;
    double p50_us = 0.0;
    double p95_us = 0.0;
  };
  Snapshot stats(Phase phase) const SINRCOLOR_EXCLUDES(mutex_);

  /// Scopes recorded across all phases (0 = nothing was profiled).
  std::uint64_t recorded() const SINRCOLOR_EXCLUDES(mutex_);

  /// {"phases":{"slot":{count,total_us,self_us,max_us,p50_us,p95_us},...}}
  /// in Phase declaration order; phases with no samples are omitted.
  void write_json(common::JsonWriter& json) const SINRCOLOR_EXCLUDES(mutex_);
  std::string to_json() const SINRCOLOR_EXCLUDES(mutex_);

 private:
  struct PhaseStats {
    PhaseStats();
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t max_ns = 0;
    Histogram hist;  ///< log-spaced microsecond buckets (shared edges)
  };

  mutable common::Mutex mutex_;
  std::array<PhaseStats, kPhaseCount> phases_ SINRCOLOR_GUARDED_BY(mutex_);
};

namespace detail {

/// Per-thread nesting stack: each open scope tracks the summed duration (ns)
/// of its already-closed children so the parent can report self time. Fixed
/// depth — deeper nesting still records totals, just without the self-time
/// split for the overflowing frames.
struct ProfileStack {
  static constexpr std::size_t kMaxDepth = 16;
  std::uint64_t child_ns[kMaxDepth];
  std::size_t depth = 0;
};

inline ProfileStack& profile_stack() {
  thread_local ProfileStack stack;
  return stack;
}

}  // namespace detail

/// RAII phase bracket. A null profiler costs one pointer test and nothing
/// else (no clock read) — the SINRCOLOR_TRACE discipline.
class PhaseScope {
 public:
  PhaseScope(Profiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ == nullptr) return;
    phase_ = phase;
    auto& stack = detail::profile_stack();
    if (stack.depth < detail::ProfileStack::kMaxDepth) {
      stack.child_ns[stack.depth] = 0;
      depth_ = ++stack.depth;
    }
    start_ = std::chrono::steady_clock::now();
  }

  ~PhaseScope() {
    if (profiler_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto total_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
    std::uint64_t child_ns = 0;
    if (depth_ > 0) {
      auto& stack = detail::profile_stack();
      child_ns = stack.child_ns[depth_ - 1];
      stack.depth = depth_ - 1;
      if (depth_ > 1) stack.child_ns[depth_ - 2] += total_ns;
    }
    profiler_->record(phase_, total_ns,
                      total_ns >= child_ns ? total_ns - child_ns : 0);
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Profiler* const profiler_;
  Phase phase_{};
  std::size_t depth_ = 0;  ///< 1-based frame index; 0 = stack overflowed
  std::chrono::steady_clock::time_point start_{};
};

#define SINRCOLOR_PROFILE_CAT2(a, b) a##b
#define SINRCOLOR_PROFILE_CAT(a, b) SINRCOLOR_PROFILE_CAT2(a, b)

/// Brackets the rest of the enclosing block as one `phase` scope of
/// `profiler_ptr` (may be null — see the null-guard discipline above).
#define SINRCOLOR_PROFILE(profiler_ptr, phase)                 \
  ::sinrcolor::obs::PhaseScope SINRCOLOR_PROFILE_CAT(          \
      sinrcolor_profile_scope_, __LINE__)((profiler_ptr), (phase))

}  // namespace sinrcolor::obs
