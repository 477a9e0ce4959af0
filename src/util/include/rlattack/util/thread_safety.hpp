// Clang Thread Safety Analysis surface for the whole concurrency substrate.
//
// Every mutex-owning type in the tree (util::ThreadPool, util::log,
// obs::MetricsRegistry) declares its lock-ordering protocol through these
// macros so `-Wthread-safety -Werror` (run_checks.sh config "tsa") proves
// lock discipline on every compile — including protocols the sanitizer
// matrix can only validate on the interleavings a test happens to execute,
// such as the pool's job hand-off (RLATTACK_GUARDED_BY on its queue state,
// RLATTACK_EXCLUDES on worker_loop and run). The episode rendezvous owns no
// lock: its episodes are fibers on one thread.
//
// Under any compiler without the attributes (gcc, MSVC) every macro expands
// to nothing and util::Mutex / util::MutexLock compile down to the
// std::mutex / std::unique_lock they wrap — the default build is unaffected
// and bench rows stay bit-identical.
//
// Conventions (see DESIGN.md "Static analysis"):
//  - Members guarded by a lock carry RLATTACK_GUARDED_BY(mu_) on the
//    declaration; the comment says *what invariant* the lock protects.
//  - Entry points that take the lock themselves take
//    RLATTACK_EXCLUDES(mu_).
//  - Condition-variable predicates that read guarded state are written as
//    explicit `while (!pred) cv.wait(...)` loops in the annotated function
//    body, never as lambdas — the analysis is function-local and cannot see
//    a capability held across a lambda boundary.
//  - Cross-thread handoffs the analysis cannot express (a worker reading
//    state the spawning thread guards for it) are restructured so the data
//    is hoisted out under the lock before the handoff, not waived with
//    RLATTACK_NO_THREAD_SAFETY_ANALYSIS.
#pragma once

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define RLATTACK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define RLATTACK_THREAD_ANNOTATION(x)  // no-op under gcc/MSVC
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define RLATTACK_CAPABILITY(x) RLATTACK_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires on construction, releases on scope exit.
#define RLATTACK_SCOPED_CAPABILITY RLATTACK_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the named capability.
#define RLATTACK_GUARDED_BY(x) RLATTACK_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define RLATTACK_PT_GUARDED_BY(x) RLATTACK_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function may only be called while NOT holding the capability (it will
/// acquire it itself; calling with it held would self-deadlock).
#define RLATTACK_EXCLUDES(...) \
  RLATTACK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability and returns without releasing it.
#define RLATTACK_ACQUIRE(...) \
  RLATTACK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability it was called with.
#define RLATTACK_RELEASE(...) \
  RLATTACK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `val`.
#define RLATTACK_TRY_ACQUIRE(val, ...) \
  RLATTACK_THREAD_ANNOTATION(try_acquire_capability(val, __VA_ARGS__))

/// Declares lock-ordering between two capabilities.
#define RLATTACK_ACQUIRED_BEFORE(...) \
  RLATTACK_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define RLATTACK_ACQUIRED_AFTER(...) \
  RLATTACK_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function returns a reference to the named capability (accessor pattern).
#define RLATTACK_RETURN_CAPABILITY(x) \
  RLATTACK_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch of last resort; every use needs a comment explaining why
/// the protocol is correct but inexpressible. Prefer restructuring.
#define RLATTACK_NO_THREAD_SAFETY_ANALYSIS \
  RLATTACK_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace rlattack::util {

/// std::mutex with the capability attribute the analysis needs. Zero
/// overhead: the annotated lock/unlock forward straight to std::mutex, and
/// native() exposes the wrapped mutex for condition_variable waits.
class RLATTACK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RLATTACK_ACQUIRE() { mu_.lock(); }
  void unlock() RLATTACK_RELEASE() { mu_.unlock(); }
  bool try_lock() RLATTACK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped mutex, for std::condition_variable::wait. The caller must
  /// hold this Mutex (via MutexLock) around the wait; wait's internal
  /// unlock/relock is invisible to the analysis but re-establishes the
  /// capability before returning, so guarded reads after the wait are sound.
  std::mutex& native() noexcept { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over util::Mutex (std::unique_lock underneath, so it
/// composes with condition variables via native_lock()). The capability is
/// held from construction to scope exit; early unlock is deliberately not
/// offered — scopes in this codebase are already minimal.
class RLATTACK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RLATTACK_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() RLATTACK_RELEASE() = default;
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For condition_variable::wait(lock) calls made while holding the mutex.
  std::unique_lock<std::mutex>& native_lock() noexcept { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace rlattack::util
