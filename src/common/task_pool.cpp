#include "common/task_pool.h"

#include <algorithm>

#include "common/check.h"

namespace sinrcolor::common {

TaskPool::TaskPool(std::size_t threads) : threads_(std::max<std::size_t>(1, threads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

// Lock-passing dance: the caller's scoped guard is released around each
// fn(s) call and reacquired after. The analysis cannot associate a MutexLock
// received by reference with mutex_, so the body is exempted; the REQUIRES
// contract on the declaration is still enforced at every call site, and the
// TSan tier exercises this exact interleaving under load.
void TaskPool::drain_job(MutexLock& lock) SINRCOLOR_NO_THREAD_SAFETY_ANALYSIS {
  while (next_shard_ < job_shards_) {
    const std::size_t s = next_shard_++;
    // Read the job pointer while still locked; it stays valid unlocked
    // because run_shards keeps it installed until remaining_ hits zero.
    const std::function<void(std::size_t)>* job = job_;
    lock.unlock();
    (*job)(s);
    lock.lock();
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void TaskPool::run_shards(std::size_t shards,
                          const std::function<void(std::size_t)>& fn) {
  if (shards == 0) return;
  if (workers_.empty() || shards == 1) {
    for (std::size_t s = 0; s < shards; ++s) fn(s);
    return;
  }
  MutexLock lock(mutex_);
  SINRCOLOR_CHECK_MSG(job_ == nullptr, "TaskPool::run_shards is not reentrant");
  job_ = &fn;
  job_shards_ = shards;
  next_shard_ = 0;
  remaining_ = shards;
  ++generation_;
  work_cv_.notify_all();
  drain_job(lock);
  while (remaining_ != 0) done_cv_.wait(mutex_);
  job_ = nullptr;
  job_shards_ = 0;
}

void TaskPool::worker_loop() {
  MutexLock lock(mutex_);
  std::uint64_t seen = 0;
  while (true) {
    while (!stop_ && generation_ == seen) work_cv_.wait(mutex_);
    if (stop_) return;
    seen = generation_;
    drain_job(lock);
  }
}

}  // namespace sinrcolor::common
