// Capability-annotated synchronization primitives.
//
// libstdc++'s std::mutex / std::lock_guard carry no Clang capability
// attributes, so code locking them is invisible to -Wthread-safety: every
// GUARDED_BY access would be diagnosed as unlocked no matter how carefully
// the locks are taken. These thin wrappers restore visibility:
//
//   Mutex      std::mutex with the capability attribute and annotated
//              lock()/unlock().
//   MutexLock  scoped guard (SCOPED_CAPABILITY): locks in its constructor,
//              unlocks in its destructor — the ONLY sanctioned way to lock a
//              Mutex (sinrlint R6 bans bare .lock()/.unlock() outside this
//              file).
//
// These wrappers add no state and no branches over the std types; a
// non-Clang build compiles to exactly the std::mutex code it replaced.
#pragma once

#include <mutex>

#include "common/thread_safety.h"

namespace sinrcolor::common {

class SINRCOLOR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SINRCOLOR_ACQUIRE() { m_.lock(); }
  void unlock() SINRCOLOR_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// RAII lock for Mutex, held for the guard's whole scope.
class SINRCOLOR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SINRCOLOR_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SINRCOLOR_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace sinrcolor::common
