// Deterministic fork-join worker pool behind the sweep engine's trials
// (common::SweepEngine, its only user). A run resolves every slot on its own
// thread; parallelism lives between runs, never inside one.
//
// A job is a fixed number of independent shards. Work is never stolen or
// re-partitioned: shard s is fully processed by exactly one fn(s) call, so a
// 1-thread and an N-thread run perform identical per-shard arithmetic, and
// any merge done in shard order afterwards is byte-identical. Workers claim
// shard indices from a shared counter — only the ASSIGNMENT of shard to
// worker varies between runs, never the work or the merged result
// (tests/sweep_test.cpp holds the sweep engine to this).
//
// run_shards takes the job by const reference and stores only a pointer for
// the workers. The pool is not reentrant — a shard function must never call
// run_shards on the same pool.
//
// Lock discipline (checked by clang -Wthread-safety via the annotations
// below, and hammered under TSan by tests/concurrency_stress_test.cpp):
// every mutable member is guarded by mutex_; shard functions run with the
// mutex RELEASED (drain_job's lock-passing contract), reading the job
// pointer into a local while still locked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_safety.h"

namespace sinrcolor::common {

class TaskPool {
 public:
  /// `threads` is clamped to ≥ 1. A 1-thread pool spawns no workers and
  /// run_shards executes inline, so the default configuration costs nothing.
  /// The calling thread always participates in a job, so `threads` counts it
  /// (threads = 4 ⇒ 3 workers + the caller).
  explicit TaskPool(std::size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::size_t thread_count() const { return threads_; }

  /// Invokes fn(s) exactly once for every shard s in [0, shards), possibly
  /// concurrently, and blocks until every call returned. fn must not throw;
  /// shards must not share mutable state. Not reentrant.
  void run_shards(std::size_t shards,
                  const std::function<void(std::size_t)>& fn)
      SINRCOLOR_EXCLUDES(mutex_);

 private:
  void worker_loop() SINRCOLOR_EXCLUDES(mutex_);
  /// Claims and runs shards until none remain. `lock` owns mutex_ on entry
  /// and exit but releases it around each fn(s) call — the caller's scoped
  /// guard is threaded through so the unlock/relock stays visible to it.
  void drain_job(MutexLock& lock) SINRCOLOR_REQUIRES(mutex_);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  const std::function<void(std::size_t)>* job_ SINRCOLOR_GUARDED_BY(mutex_) =
      nullptr;
  std::size_t job_shards_ SINRCOLOR_GUARDED_BY(mutex_) = 0;
  std::size_t next_shard_ SINRCOLOR_GUARDED_BY(mutex_) = 0;
  std::size_t remaining_ SINRCOLOR_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ SINRCOLOR_GUARDED_BY(mutex_) = 0;
  bool stop_ SINRCOLOR_GUARDED_BY(mutex_) = false;
};

}  // namespace sinrcolor::common
