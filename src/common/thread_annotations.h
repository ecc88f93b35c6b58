// Clang thread-safety-analysis capability wrappers.
//
// Every mutex in the engine is one of the wrapper types below, and every
// member it protects carries GUARDED_BY — so the lock protocols documented
// in sharded_engine.h / service.h / buffer_pool.h are machine-checked:
// compiling with clang and -Wthread-safety -Werror=thread-safety (the CI
// "thread-safety" job; see CMakeLists.txt) rejects any access to a guarded
// member without its capability held, any double-acquire, and any
// lock-order violation expressible through REQUIRES/EXCLUDES.
//
// Under GCC (the default local toolchain) every macro expands to nothing
// and the wrappers are zero-cost veneers over the std primitives.
//
// Conventions used across the repo:
//  * Members:       T x_ GUARDED_BY(mu_);
//  * Lock-held fns: void F() REQUIRES(mu_);         // caller holds mu_
//                   void G() REQUIRES_SHARED(mu_);  // at least shared
//  * Lock-free fns: void H() EXCLUDES(mu_);         // caller must NOT hold
//  * Deliberate escape hatches (externally-serialized protocols the
//    analysis cannot express) are NO_THREAD_SAFETY_ANALYSIS with a comment
//    naming the external serialization.
#pragma once

#include <mutex>
#include <shared_mutex>

#if defined(__clang__) && defined(__has_attribute)
#define PEB_TS_HAS_ATTRIBUTE(x) __has_attribute(x)
#else
#define PEB_TS_HAS_ATTRIBUTE(x) 0
#endif

#if PEB_TS_HAS_ATTRIBUTE(capability)
#define PEB_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define PEB_TS_ATTRIBUTE(x)  // Expands to nothing outside clang.
#endif

#define CAPABILITY(x) PEB_TS_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY PEB_TS_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) PEB_TS_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) PEB_TS_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) PEB_TS_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) PEB_TS_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) PEB_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  PEB_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) PEB_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  PEB_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) PEB_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  PEB_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) PEB_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  PEB_TS_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) PEB_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) PEB_TS_ATTRIBUTE(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) \
  PEB_TS_ATTRIBUTE(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) PEB_TS_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS PEB_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace peb {

/// std::mutex with the "mutex" capability. Also BasicLockable (lowercase
/// lock/unlock), so std::condition_variable_any waits on it directly — the
/// cv's internal unlock/relock happens inside system headers, where the
/// analysis is silent by design.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  /// Declares (does not check at runtime) that this thread holds the lock.
  /// Used inside cv wait predicates, which clang cannot see run locked.
  void AssertHeld() ASSERT_CAPABILITY(this) {}

  // BasicLockable, for std::condition_variable_any.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// std::shared_mutex with the "shared_mutex" capability: exclusive
/// Lock/Unlock plus shared ReaderLock/ReaderUnlock.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void ReaderLock() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { mu_.unlock_shared(); }
  void AssertHeld() ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock on a Mutex (the std::lock_guard replacement).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// RAII exclusive lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

}  // namespace peb
