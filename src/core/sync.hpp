#pragma once
// Capability-wrapped synchronization primitives.
//
// swc::Mutex / swc::CondVar are the only mutex and condition variable the
// project uses (tools/lint/swc_lint.py rejects raw std::mutex outside this
// header). They are zero-cost wrappers over the std primitives whose only
// job is to carry thread-safety capability attributes, so that clang's
// -Wthread-safety analysis can check GUARDED_BY/REQUIRES contracts across
// the runtime, serve, telemetry, and codec layers.
//
// Two scoped lockers are provided:
//   MutexLock  — std::lock_guard equivalent: locks for the full scope.
//   UniqueLock — std::unique_lock equivalent: relockable (unlock()/lock()),
//                and the form CondVar::wait() takes.
//
// Note on condition variables and the analysis: clang analyzes lambda bodies
// as separate functions, so the predicate-taking wait(lock, pred) overload
// cannot see the caller's held locks and would flag every guarded read in
// the predicate. CondVar therefore only offers the plain wait() form; call
// sites spell the loop out:
//     while (!condition) cv.wait(lock);

#include <condition_variable>
#include <mutex>

#include "core/thread_annotations.hpp"

namespace swc {

class CondVar;
class UniqueLock;

class SWC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SWC_ACQUIRE() { m_.lock(); }
  void unlock() SWC_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() SWC_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class UniqueLock;
  std::mutex m_;
};

// Scope-long lock (std::lock_guard analogue).
class SWC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) SWC_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() SWC_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

// Relockable scoped lock (std::unique_lock analogue); required by CondVar.
class SWC_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) SWC_ACQUIRE(m) : impl_(m.m_) {}
  ~UniqueLock() SWC_RELEASE() {}

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() SWC_ACQUIRE() { impl_.lock(); }
  void unlock() SWC_RELEASE() { impl_.unlock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> impl_;
};

class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // The analysis does not model wait()'s release/reacquire cycle; since the
  // lock is held again on return, the net capability state is unchanged and
  // no annotation is needed.
  void wait(UniqueLock& lock) { cv_.wait(lock.impl_); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace swc
