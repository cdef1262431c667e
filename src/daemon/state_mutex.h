// StateMutex — the per-shard reader/writer state lock (DESIGN.md Sect. 11).
//
// Writer-preferring: once a writer (a group-commit batch, the epoch
// barrier, replica ingest) waits, new readers queue behind it. The glibc
// std::shared_mutex prefers readers instead, so back-to-back overlapping
// `encrypt`s, which hold the lock shared across their exponentiations,
// would keep every mutation out for as long as the read load lasts.
//
// The price of writer preference: a thread already holding the lock
// shared must not take it shared again (it would queue behind the writer
// that waits on it). No daemon path does.
#pragma once

#include <pthread.h>

#include <system_error>

namespace dfky::daemon {

/// Meets the standard SharedMutex requirements, so std::unique_lock and
/// std::shared_lock work on it unchanged.
class StateMutex {
 public:
  StateMutex() {
    pthread_rwlockattr_t attr;
    pthread_rwlockattr_init(&attr);
    pthread_rwlockattr_setkind_np(&attr,
                                  PTHREAD_RWLOCK_PREFER_WRITER_NONRECURSIVE_NP);
    const int rc = pthread_rwlock_init(&rw_, &attr);
    pthread_rwlockattr_destroy(&attr);
    check(rc, "pthread_rwlock_init");
  }
  ~StateMutex() { pthread_rwlock_destroy(&rw_); }

  StateMutex(const StateMutex&) = delete;
  StateMutex& operator=(const StateMutex&) = delete;

  void lock() { check(pthread_rwlock_wrlock(&rw_), "pthread_rwlock_wrlock"); }
  bool try_lock() { return pthread_rwlock_trywrlock(&rw_) == 0; }
  void unlock() { pthread_rwlock_unlock(&rw_); }

  void lock_shared() {
    check(pthread_rwlock_rdlock(&rw_), "pthread_rwlock_rdlock");
  }
  bool try_lock_shared() { return pthread_rwlock_tryrdlock(&rw_) == 0; }
  void unlock_shared() { pthread_rwlock_unlock(&rw_); }

 private:
  static void check(int rc, const char* what) {
    if (rc != 0) throw std::system_error(rc, std::generic_category(), what);
  }

  pthread_rwlock_t rw_;
};

}  // namespace dfky::daemon
