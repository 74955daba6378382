// Annotated mutex wrappers: the capability-carrying types behind
// util/thread_annotations.hpp.
//
// Clang's thread-safety analysis needs the mutex TYPE to be declared a
// capability, which std::mutex is not — so every mutex-protected member
// in the codebase is a util::Mutex / SharedMutex, and every acquisition
// goes through the annotated RAII scoped locks below.
// The wrappers are zero-cost passthroughs over their std counterparts
// (all methods are one inlined call); what they add is that
// -Werror=thread-safety can now prove lock discipline at compile time.
//
//   class Cache {
//     util::Mutex mu_;
//     std::map<K, V> entries_ BP_GUARDED_BY(mu_);
//     void EvictLocked() BP_REQUIRES(mu_);
//   };
//   util::MutexLock lock(mu_);   // acquires; releases at scope exit
//   lock.Unlock(); lock.Lock();  // tracked early release / re-acquire
//
// Condition variables: std::condition_variable needs a
// std::unique_lock<std::mutex>, so MutexLock is BUILT ON one and
// exposes it via native() — `cv.wait(lock.native())` blocks with the
// analysis none the wiser (wait returns with the lock re-held, so the
// static "held" state stays truthful). Write wait loops as explicit
// `while (!cond) cv.wait(lock.native());` rather than the
// predicate-lambda overload: the analysis checks lambda bodies as
// separate functions, where the enclosing scope's held locks are not
// visible.
#pragma once

#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.hpp"

namespace bp::util {

// ----------------------------------------------------------- mutexes

class BP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() BP_ACQUIRE() { mu_.lock(); }
  void Unlock() BP_RELEASE() { mu_.unlock(); }
  bool TryLock() BP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Declares (to the analysis) that this thread already holds the lock
  // — for code reached only from under the lock through a path the
  // analysis cannot follow (callbacks, lambdas). See the suppression
  // policy in README.md.
  void AssertHeld() const BP_ASSERT_CAPABILITY(this) {}

  // The wrapped mutex, for std::condition_variable interop (MutexLock
  // holds a std::unique_lock over it). Do not lock it directly: raw
  // acquisitions are invisible to the analysis.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

// Reader/writer lock (MemEnv file content: page reads shared, WAL
// appends exclusive).
class BP_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() BP_ACQUIRE() { mu_.lock(); }
  void Unlock() BP_RELEASE() { mu_.unlock(); }
  void LockShared() BP_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() BP_RELEASE_SHARED() { mu_.unlock_shared(); }

  std::shared_mutex& native() { return mu_; }

 private:
  std::shared_mutex mu_;
};

// ------------------------------------------------------ scoped locks

// RAII exclusive lock over Mutex. Supports tracked early release and
// re-acquisition (the ingest committer drops the queue lock around
// storage commits), and exposes the underlying std::unique_lock for
// condition-variable waits.
class BP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BP_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() BP_RELEASE_GENERIC() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() BP_RELEASE() { lock_.unlock(); }
  void Lock() BP_ACQUIRE() { lock_.lock(); }

  // For std::condition_variable::wait. The lock is held again when
  // wait returns, so the analysis' view stays correct across the call.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

// RAII exclusive (writer) lock over SharedMutex.
class BP_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) BP_ACQUIRE(mu) : mu_(mu) {
    mu_.native().lock();
  }
  ~WriterMutexLock() BP_RELEASE_GENERIC() { mu_.native().unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock over SharedMutex.
class BP_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) BP_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.native().lock_shared();
  }
  ~ReaderMutexLock() BP_RELEASE_GENERIC() { mu_.native().unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace bp::util
