#ifndef GKNN_UTIL_LOCKDEP_H_
#define GKNN_UTIL_LOCKDEP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>         // gknn-lint: allow(raw-mutex): this file IS the lockdep layer
#include <shared_mutex>  // gknn-lint: allow(raw-mutex): this file IS the lockdep layer
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

// GKNN_LOCKDEP selects whether runtime lock-order validation is compiled
// in. The build sets it via -DGKNN_LOCKDEP=0 (CMake option
// GKNN_LOCKDEP=OFF); the default is on. When off, every wrapper below is a
// thin shell over the std primitive — same size, no per-acquisition
// bookkeeping — exactly like the GKNN_OBS gate.
#ifndef GKNN_LOCKDEP
#define GKNN_LOCKDEP 1
#endif

namespace gknn::util::lockdep {

/// True when lock-order validation is compiled in; tests gate their
/// violation assertions on this so a GKNN_LOCKDEP=0 build still passes.
inline constexpr bool kEnabled = (GKNN_LOCKDEP != 0);

/// One lock *class* of the global ordering (docs/CONCURRENCY.md "Lock
/// ordering", machine-checked by tools/gknn_lint.py). Every lockdep
/// mutex belongs to a class; the class carries the static rank that
/// encodes the hierarchy:
///
///  - A thread may only acquire a class whose rank is strictly greater
///    than the deepest rank it currently holds.
///  - `nestable` classes (the cleaner's striped cell locks) may hold
///    several instances at once, but only in strictly ascending instance
///    key order — the ascending-stripe rule.
///  - `leaf` classes may never be held while acquiring *any* tracked
///    lock, regardless of rank.
///  - Two distinct classes of equal rank may be taken in either order
///    (neither dominates), but every observed acquisition order feeds the
///    global order graph, whose DFS cycle detection flags an A->B / B->A
///    pattern even when no single run interleaves into a deadlock.
#if GKNN_LOCKDEP
class LockClass {
 public:
  constexpr LockClass(const char* name, int rank, bool nestable = false,
                      bool leaf = false)
      : name_(name), rank_(rank), nestable_(nestable), leaf_(leaf) {}

  LockClass(const LockClass&) = delete;
  LockClass& operator=(const LockClass&) = delete;

  const char* name() const { return name_; }
  int rank() const { return rank_; }
  bool nestable() const { return nestable_; }
  bool leaf() const { return leaf_; }

  /// Dense id used by the acquisition-order graph; assigned on first use.
  int id() const;

 private:
  const char* name_;
  int rank_;
  bool nestable_;
  bool leaf_;
  mutable std::atomic<int> id_{-1};
};
#else
class LockClass {
 public:
  constexpr LockClass(const char*, int, bool = false, bool = false) {}
  LockClass(const LockClass&) = delete;
  LockClass& operator=(const LockClass&) = delete;
};
#endif

/// The production lock classes. This block is the single source of truth
/// for the lock hierarchy: tools/gknn_lint.py parses the lines between the
/// two markers and fails the lint when the `name (rank)` pairs drift from
/// the table in docs/CONCURRENCY.md. Ranks increase downward; 900+ are
/// leaves.
// gknn-lockdep-table-begin
inline constinit LockClass kServerIndexClass{"server.index", 100};
inline constinit LockClass kRouterObjectsClass{"router.objects", 150};
inline constinit LockClass kServerInboxClass{"server.inbox", 200};
inline constinit LockClass kCleanerStripeClass{"cleaner.stripe", 300, true};
inline constinit LockClass kCleanerDeviceClass{"cleaner.device", 400};
inline constinit LockClass kCoreArenaClass{"core.arena", 500};
inline constinit LockClass kServerBreakerClass{"server.breaker", 900, false, true};
inline constinit LockClass kServerAdmissionClass{"server.admission", 902, false, true};
inline constinit LockClass kGpusimSchedulerClass{"gpusim.scheduler", 903, false, true};
inline constinit LockClass kEngineWorkspaceClass{"engine.workspace", 905, false, true};
inline constinit LockClass kObsRingClass{"obs.ring", 910, false, true};
inline constinit LockClass kObsRegistryClass{"obs.registry", 920, false, true};
inline constinit LockClass kDeviceFaultClass{"device.fault", 930, false, true};
inline constinit LockClass kDeviceStatsClass{"device.stats", 940, false, true};
inline constinit LockClass kPoolQueueClass{"pool.queue", 950, false, true};
// gknn-lockdep-table-end

/// One detected lock-discipline violation. Detection never blocks or
/// throws: the offending acquisition still proceeds (the checker reports
/// *potential* deadlocks; it must not create real ones), the violation is
/// counted, and the installed handler — by default GKNN_LOG(Error) — is
/// invoked.
struct Violation {
  enum class Kind {
    kRankInversion,  // acquired a rank <= the deepest held rank
    kLeafHeld,       // acquired a tracked lock while holding a leaf
    kSameClass,      // same-class re-entry, or nestable keys not ascending
    kCycle,          // new order-graph edge closed a cycle
  };
  Kind kind;
  std::string message;
};

#if GKNN_LOCKDEP
/// Total violations detected since process start (relaxed atomic). The
/// query server folds this into the metric registry as
/// `gknn_lockdep_violations_total`.
uint64_t ViolationCount();

/// Status form of the most recent violation: OK when none has occurred,
/// Internal with the violation message otherwise.
Status LastViolationStatus();

using ViolationHandler = void (*)(const Violation&);

/// Installs `handler` (nullptr restores the default logging handler) and
/// returns the previous one. Tests install a capturing handler to assert
/// on seeded violations regression-style instead of death-style.
ViolationHandler SetViolationHandler(ViolationHandler handler);

/// Clears the violation counter and last-violation status (the order
/// graph is intentionally kept: recorded edges are facts about the
/// program). Test-only.
void ResetViolationsForTesting();

/// Tracked acquisitions (lock, lock_shared, successful try_lock) the
/// calling thread has made since it started: in total, or of one class.
/// Tests difference two readings to pin how many locks a code path takes
/// (test_message_cleaner's lock-traffic test). With lockdep compiled out
/// nothing is counted and both read 0.
uint64_t ThreadAcquisitions();
uint64_t ThreadAcquisitions(const LockClass& cls);

namespace internal {
/// Pre-acquisition hook: runs the rank / leaf / nestable-key checks
/// against the calling thread's held-lock stack, records order-graph
/// edges (running cycle detection on first insertion), and pushes the
/// lock. Called before the physical acquisition so a would-be deadlock is
/// reported rather than silently blocked on.
void OnAcquire(const LockClass& cls, uint32_t key, const void* addr);
/// Pops `addr` from the calling thread's held-lock stack (out-of-order
/// release supported: condition-variable waits unlock mid-stack).
void OnRelease(const void* addr);
}  // namespace internal
#else
inline uint64_t ViolationCount() { return 0; }
inline Status LastViolationStatus() { return Status::OK(); }
using ViolationHandler = void (*)(const Violation&);
inline ViolationHandler SetViolationHandler(ViolationHandler) {
  return nullptr;
}
inline void ResetViolationsForTesting() {}
inline uint64_t ThreadAcquisitions() { return 0; }
inline uint64_t ThreadAcquisitions(const LockClass&) { return 0; }
#endif

template <size_t N>
class StripedMutexes;

/// std::mutex carrying a LockClass. Satisfies Lockable, so it works with
/// std::condition_variable_any; acquisitions and releases are validated
/// against the calling thread's held-lock stack when GKNN_LOCKDEP is on.
class Mutex {
 public:
#if GKNN_LOCKDEP
  explicit Mutex(const LockClass& cls, uint32_t key = 0)
      : cls_(&cls), key_(key) {}

  void lock() {
    internal::OnAcquire(*cls_, key_, this);
    mu_.lock();
  }
  bool try_lock() {
    if (!mu_.try_lock()) return false;
    internal::OnAcquire(*cls_, key_, this);
    return true;
  }
  void unlock() {
    internal::OnRelease(this);
    mu_.unlock();
  }
#else
  explicit Mutex(const LockClass&, uint32_t = 0) {}

  void lock() { mu_.lock(); }
  bool try_lock() { return mu_.try_lock(); }
  void unlock() { mu_.unlock(); }
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  template <size_t N>
  friend class StripedMutexes;

  /// Unbound instance; only StripedMutexes may create one, and it binds
  /// the class before the array is visible to any other thread.
  Mutex() = default;
#if GKNN_LOCKDEP
  void Bind(const LockClass& cls, uint32_t key) {
    cls_ = &cls;
    key_ = key;
  }
#else
  void Bind(const LockClass&, uint32_t) {}
#endif

  std::mutex mu_;  // gknn-lint: allow(raw-mutex): wrapped primitive
#if GKNN_LOCKDEP
  const LockClass* cls_ = nullptr;
  uint32_t key_ = 0;
#endif
};

/// std::shared_mutex carrying a LockClass. Shared acquisitions partake in
/// the same ordering as exclusive ones: a reader deadlocks with a writer
/// exactly as a writer does, so both sides push onto the held stack.
class SharedMutex {
 public:
#if GKNN_LOCKDEP
  explicit SharedMutex(const LockClass& cls, uint32_t key = 0)
      : cls_(&cls), key_(key) {}

  void lock() {
    internal::OnAcquire(*cls_, key_, this);
    mu_.lock();
  }
  void unlock() {
    internal::OnRelease(this);
    mu_.unlock();
  }
  void lock_shared() {
    internal::OnAcquire(*cls_, key_, this);
    mu_.lock_shared();
  }
  void unlock_shared() {
    internal::OnRelease(this);
    mu_.unlock_shared();
  }
#else
  explicit SharedMutex(const LockClass&, uint32_t = 0) {}

  void lock() { mu_.lock(); }
  void unlock() { mu_.unlock(); }
  void lock_shared() { mu_.lock_shared(); }
  void unlock_shared() { mu_.unlock_shared(); }
#endif

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

 private:
  std::shared_mutex mu_;  // gknn-lint: allow(raw-mutex): wrapped primitive
#if GKNN_LOCKDEP
  const LockClass* cls_ = nullptr;
  uint32_t key_ = 0;
#endif
};

/// std::lock_guard replacement for lockdep::Mutex.
class MutexLock {
 public:
  explicit MutexLock(Mutex& mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock replacement: relockable, so it composes with
/// std::condition_variable_any (ThreadPool's worker wait).
class UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) : mu_(&mu) { lock(); }
  ~UniqueLock() {
    if (owns_) mu_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() {
    mu_->lock();
    owns_ = true;
  }
  void unlock() {
    owns_ = false;
    mu_->unlock();
  }
  bool owns_lock() const { return owns_; }

 private:
  Mutex* mu_;
  bool owns_ = false;
};

/// Writer-side guard over a SharedMutex (std::unique_lock<shared_mutex>
/// replacement for scoped exclusive sections).
class ExclusiveLock {
 public:
  explicit ExclusiveLock(SharedMutex& mu) : mu_(mu) { mu_.lock(); }
  ~ExclusiveLock() { mu_.unlock(); }

  ExclusiveLock(const ExclusiveLock&) = delete;
  ExclusiveLock& operator=(const ExclusiveLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Reader-side guard over a SharedMutex (std::shared_lock replacement).
class SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) : mu_(mu) { mu_.lock_shared(); }
  ~SharedLock() { mu_.unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Acquires a set of same-class mutexes as one ranked multi-lock and
/// releases them in reverse on destruction. The caller passes the
/// instances in ascending key order (the cleaner passes its sorted,
/// deduplicated stripe set); with lockdep on, the per-acquisition
/// nestable-key check *asserts* the ascending-stripe order — an unsorted
/// or duplicated sequence is reported as a violation, closing the ABBA
/// window two overlapping cell sets would otherwise have.
class MultiLock {
 public:
  MultiLock() = default;
  explicit MultiLock(std::vector<Mutex*> mutexes) { Lock(std::move(mutexes)); }
  ~MultiLock() { Unlock(); }

  MultiLock(const MultiLock&) = delete;
  MultiLock& operator=(const MultiLock&) = delete;

  /// Locks `mutexes` front to back. Must not already hold a set.
  void Lock(std::vector<Mutex*> mutexes) {
    held_ = std::move(mutexes);
    for (Mutex* mu : held_) mu->lock();
  }

  /// Releases the held set back to front. Idempotent.
  void Unlock() {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      (*it)->unlock();
    }
    held_.clear();
  }

  size_t size() const { return held_.size(); }

 private:
  std::vector<Mutex*> held_;
};

/// A fixed array of same-class mutexes keyed by index — the shape of the
/// cleaner's per-cell stripes and the server's inbox stripes. Instance i
/// carries key i, so the nestable-key check can assert ascending-stripe
/// acquisition across the array.
template <size_t N>
class StripedMutexes {
 public:
  explicit StripedMutexes(const LockClass& cls) {
    for (size_t i = 0; i < N; ++i) {
      mus_[i].Bind(cls, static_cast<uint32_t>(i));
    }
  }

  StripedMutexes(const StripedMutexes&) = delete;
  StripedMutexes& operator=(const StripedMutexes&) = delete;

  Mutex& operator[](size_t i) { return mus_[i]; }
  const Mutex& operator[](size_t i) const { return mus_[i]; }
  static constexpr size_t size() { return N; }

 private:
  Mutex mus_[N];
};

}  // namespace gknn::util::lockdep

#endif  // GKNN_UTIL_LOCKDEP_H_
