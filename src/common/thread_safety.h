// Clang thread-safety-analysis capability macros (no-ops elsewhere).
//
// The parallel engine's byte-identity claim rests on a small, explicit
// concurrency surface: common::SweepEngine's per-sweep fork-join (an atomic
// trial counter, no lock) and the lock-guarded obs sinks every trial may
// share (obs::Tracer, obs::Profiler, obs::MetricsRegistry). These macros
// let each class declare its lock discipline in the type system —
// which mutex guards which field, which private helpers require the lock —
// so `clang++ -Wthread-safety -Wthread-safety-beta` (the CI thread-safety
// job, under SINRCOLOR_WERROR) rejects any access that bypasses it, instead
// of leaving the discipline to hand audits. GCC and MSVC see empty macros
// and compile the identical code.
//
// Use the annotated primitives in common/mutex.h (common::Mutex,
// common::MutexLock) rather than std::mutex directly:
// libstdc++'s std::mutex/std::lock_guard carry no capability attributes, so
// the analysis cannot see them (sinrlint R6 enforces this tree-wide).
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#if defined(__clang__) && !defined(SINRCOLOR_NO_THREAD_SAFETY_ANNOTATIONS)
#define SINRCOLOR_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SINRCOLOR_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// On a class: instances are capabilities (lockable objects). `x` is the
/// capability kind shown in diagnostics, e.g. "mutex".
#define SINRCOLOR_CAPABILITY(x) SINRCOLOR_THREAD_ANNOTATION_(capability(x))

/// On a class: RAII object that acquires a capability at construction and
/// releases it at destruction (common::MutexLock).
#define SINRCOLOR_SCOPED_CAPABILITY SINRCOLOR_THREAD_ANNOTATION_(scoped_lockable)

/// On a data member: reads and writes require holding `x`.
#define SINRCOLOR_GUARDED_BY(x) SINRCOLOR_THREAD_ANNOTATION_(guarded_by(x))

/// On a pointer member: dereferences require holding `x` (the pointer itself
/// is not guarded).
#define SINRCOLOR_PT_GUARDED_BY(x) SINRCOLOR_THREAD_ANNOTATION_(pt_guarded_by(x))

/// On a function: callers must hold the listed capabilities on entry (and
/// still hold them on exit).
#define SINRCOLOR_REQUIRES(...) \
  SINRCOLOR_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// On a function: acquires the listed capabilities (held on exit, not entry).
#define SINRCOLOR_ACQUIRE(...) \
  SINRCOLOR_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// On a function: releases the listed capabilities (held on entry, not exit).
#define SINRCOLOR_RELEASE(...) \
  SINRCOLOR_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// On a function: callers must NOT hold the listed capabilities (deadlock
/// guard for functions that acquire them internally).
#define SINRCOLOR_EXCLUDES(...) \
  SINRCOLOR_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// On a function: returns a reference to the capability guarding its result.
#define SINRCOLOR_RETURN_CAPABILITY(x) \
  SINRCOLOR_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis inside one function body. Every use must
/// carry a comment explaining why the pattern is beyond the analysis (e.g.
/// obs::MetricsRegistry's quiescent-state accessors, whose returned
/// references outlive any lock scope).
#define SINRCOLOR_NO_THREAD_SAFETY_ANALYSIS \
  SINRCOLOR_THREAD_ANNOTATION_(no_thread_safety_analysis)
