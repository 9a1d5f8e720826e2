#pragma once
// Clang -Wthread-safety capability annotations (DESIGN.md §14).
//
// The campaign engine's bit-reproducibility claim rests on a small amount of
// genuinely shared mutable state (the thread pool's queue, the cell cache)
// being lock-protected, and on everything else being confined to a single
// owning task. Both properties were previously enforced by review only; this
// header makes them compiler-checked under Clang's capability analysis
// (`-Wthread-safety -Werror`, enabled for Clang builds in the top-level
// CMakeLists and exercised by the thread-safety CI job). Under GCC — which
// has no such analysis — every macro expands to nothing, so the annotations
// are zero-cost documentation there.
//
// Two kinds of annotation:
//
//  * Capability annotations (`MKOS_GUARDED_BY`, `MKOS_REQUIRES`, ...) on
//    mutex-protected structures. Use `sim::Mutex` + `sim::MutexLock` rather
//    than `std::mutex` + `std::lock_guard` for such state: libstdc++'s
//    std::mutex carries no capability attributes, so the analysis can only
//    see acquisitions made through an annotated wrapper.
//
//  * `MKOS_THREAD_CONFINED("<owner>")` on structures that are *not* locked
//    because exactly one task may touch them (per-cell simulator state:
//    RunLedger, MpiWorld, ResilienceManager, ...).
//    It expands to nothing on every compiler; it exists so "no mutex here"
//    reads as a stated ownership contract instead of an omission, and so
//    reviewers of future concurrency PRs (ROADMAP 5b) know which structures
//    must gain locks — or stay confined — when sharing changes.
//
// Escape hatch: MKOS_NO_THREAD_SAFETY_ANALYSIS disables the analysis for one
// function. Any use must carry a written justification on the same line, the
// same contract as a mkos-lint allow annotation.

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define MKOS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MKOS_THREAD_ANNOTATION(x)
#endif

/// Marks a type as a capability (a lock) the analysis can track.
#define MKOS_CAPABILITY(x) MKOS_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type that acquires on construction, releases on destruction.
#define MKOS_SCOPED_CAPABILITY MKOS_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named capability.
#define MKOS_GUARDED_BY(x) MKOS_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named capability.
#define MKOS_PT_GUARDED_BY(x) MKOS_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function callable only while holding the listed capabilities.
#define MKOS_REQUIRES(...) MKOS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function that acquires the listed capabilities (held on return).
#define MKOS_ACQUIRE(...) MKOS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function that releases the listed capabilities.
#define MKOS_RELEASE(...) MKOS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function that must NOT be entered holding the listed capabilities.
#define MKOS_EXCLUDES(...) MKOS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returning a reference to the named capability.
#define MKOS_RETURN_CAPABILITY(x) MKOS_THREAD_ANNOTATION(lock_returned(x))
/// Per-function opt-out; justify on the same line, like a lint allow.
#define MKOS_NO_THREAD_SAFETY_ANALYSIS \
  MKOS_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documentation-only: this structure is unsynchronized by design because a
/// single owner (named in the argument) may touch it at a time.
#define MKOS_THREAD_CONFINED(owner)

namespace mkos::sim {

class MKOS_SCOPED_CAPABILITY MutexLock;

/// std::mutex with capability attributes, so Clang's analysis can see
/// acquire/release pairs. Lock it through MutexLock (RAII); the raw
/// lock()/unlock() exist for the rare hand-over-hand pattern.
class MKOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MKOS_ACQUIRE() { mu_.lock(); }
  void unlock() MKOS_RELEASE() { mu_.unlock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over sim::Mutex with condition-variable integration: waits
/// run through the lock object so the capability stays held (to the
/// analysis) across the wait, matching the usual predicate-loop idiom
///
///   MutexLock lock(mu_);
///   while (!predicate()) lock.wait(cv);     // predicate reads guarded state
class MKOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MKOS_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() MKOS_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Block on `cv`; the mutex is atomically released during the wait and
  /// re-acquired before returning (std::condition_variable semantics), so
  /// callers must re-check their predicate — use the while-loop idiom above.
  void wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  std::unique_lock<std::mutex> lock_;
};

}  // namespace mkos::sim
