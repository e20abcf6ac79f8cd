// Annotated synchronization layer: the only place in the library that may
// touch the standard sync primitives directly. bfc::Mutex / bfc::SharedMutex
// / bfc::CondVar and the MutexLock / WriterLock / SharedLock RAII guards
// wrap the std types with two orthogonal checking layers:
//
//   1. Clang Thread Safety Analysis capability attributes (the BFC_*
//      macros below, compiling to nothing off-clang). Annotating a field
//      with BFC_GUARDED_BY(mu_) and a lock-held helper with BFC_REQUIRES(mu_)
//      lets `clang++ -Werror=thread-safety` prove, at compile time, that no
//      code path reads or writes the field without holding the lock. The CI
//      clang-tsa lane builds all of src/ + tests/ under that flag.
//
//   2. The BFC_CHECKED runtime lock-order checker (chk/lockorder.hpp).
//      Every mutex names its construction site; each blocking acquisition
//      records held-site -> acquired-site edges into one global graph and
//      fails deterministically — naming both sites — the first time any two
//      locks are ever taken in inconsistent order on any threads. A
//      potential-deadlock detector, not an actual-deadlock detector.
//
// The project lint rule (scripts/lint.sh rule C) forbids the raw std
// primitives everywhere else in src/; the wrapper internals below carry the
// `bfc-lint: raw-sync-ok` allowance.
#pragma once

#include <atomic>
#include <condition_variable>  // bfc-lint: raw-sync-ok (wrapper internals)
#include <memory>
#include <mutex>               // bfc-lint: raw-sync-ok (wrapper internals)
#include <shared_mutex>        // bfc-lint: raw-sync-ok (wrapper internals)
#include <utility>

#include "chk/check.hpp"
#include "chk/lockorder.hpp"

// ---------------------------------------------------------------------------
// Clang Thread Safety Analysis attribute macros. Each expands to the
// corresponding __attribute__ under clang and to nothing elsewhere, so gcc
// builds see plain classes. Reference: clang.llvm.org/docs/ThreadSafetyAnalysis.
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define BFC_TSA(x) __attribute__((x))
#else
#define BFC_TSA(x)
#endif

/// Marks a type as a capability (lockable) the analysis tracks.
#define BFC_CAPABILITY(x) BFC_TSA(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define BFC_SCOPED_CAPABILITY BFC_TSA(scoped_lockable)
/// Field may only be accessed while holding the named capability.
#define BFC_GUARDED_BY(x) BFC_TSA(guarded_by(x))
/// Pointee may only be accessed while holding the named capability.
#define BFC_PT_GUARDED_BY(x) BFC_TSA(pt_guarded_by(x))
/// Caller must hold the capability (exclusively) across the call.
#define BFC_REQUIRES(...) BFC_TSA(requires_capability(__VA_ARGS__))
/// Caller must hold the capability at least shared across the call.
#define BFC_REQUIRES_SHARED(...) BFC_TSA(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability exclusively and does not release it.
#define BFC_ACQUIRE(...) BFC_TSA(acquire_capability(__VA_ARGS__))
/// Function acquires the capability shared and does not release it.
#define BFC_ACQUIRE_SHARED(...) BFC_TSA(acquire_shared_capability(__VA_ARGS__))
/// Function releases an exclusively held capability.
#define BFC_RELEASE(...) BFC_TSA(release_capability(__VA_ARGS__))
/// Function releases a shared-held capability.
#define BFC_RELEASE_SHARED(...) BFC_TSA(release_shared_capability(__VA_ARGS__))
/// Function releases the capability however it was held.
#define BFC_RELEASE_GENERIC(...) BFC_TSA(release_generic_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns the given value.
#define BFC_TRY_ACQUIRE(...) BFC_TSA(try_acquire_capability(__VA_ARGS__))
#define BFC_TRY_ACQUIRE_SHARED(...) \
  BFC_TSA(try_acquire_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (guards against self-deadlock).
#define BFC_EXCLUDES(...) BFC_TSA(locks_excluded(__VA_ARGS__))
/// Declares the function returns a reference to the named capability.
#define BFC_RETURN_CAPABILITY(x) BFC_TSA(lock_returned(x))
/// Runtime assertion that the capability is held (trusted by the analysis).
#define BFC_ASSERT_CAPABILITY(x) BFC_TSA(assert_capability(x))
/// Escape hatch: function body is not analyzed. The acceptance bar for this
/// repo is zero uses outside this header and at most two justified ones
/// elsewhere — prefer restructuring over escaping.
#define BFC_NO_THREAD_SAFETY_ANALYSIS BFC_TSA(no_thread_safety_analysis)

namespace bfc {

/// Exclusive mutex. `site` names the construction site for the checked-build
/// lock-order graph ("svc.executor", "obs.registry", ...); instances
/// constructed through one code path share the site and therefore one node
/// in the acquisition-order graph.
class BFC_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* site) noexcept
      : site_(chk::lockorder::register_site(site)) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() BFC_ACQUIRE() {
    mu_.lock();
    if constexpr (chk::kCheckedEnabled) {
      // A lock-order violation throws out of the hook; re-throw with the
      // underlying mutex released so the caller's state stays consistent
      // (and tests can keep using the mutexes after catching).
      try {
        chk::lockorder::on_acquire(site_);
      } catch (...) {
        mu_.unlock();
        throw;
      }
    }
  }

  void unlock() BFC_RELEASE() {
    chk::lockorder::on_release(site_);
    mu_.unlock();
  }

  [[nodiscard]] bool try_lock() BFC_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) chk::lockorder::on_try_acquire(site_);
    return ok;
  }

 private:
  std::mutex mu_;  // bfc-lint: raw-sync-ok (the wrapper itself)
  chk::lockorder::SiteId site_;
};

/// Reader/writer mutex. Shared acquisitions participate in lock-order
/// tracking exactly like exclusive ones (see chk/lockorder.hpp for why that
/// conservatism is deliberate).
class BFC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(const char* site) noexcept
      : site_(chk::lockorder::register_site(site)) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() BFC_ACQUIRE() {
    mu_.lock();
    if constexpr (chk::kCheckedEnabled) {
      try {
        chk::lockorder::on_acquire(site_);
      } catch (...) {
        mu_.unlock();
        throw;
      }
    }
  }

  void unlock() BFC_RELEASE() {
    chk::lockorder::on_release(site_);
    mu_.unlock();
  }

  [[nodiscard]] bool try_lock() BFC_TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) chk::lockorder::on_try_acquire(site_);
    return ok;
  }

  void lock_shared() BFC_ACQUIRE_SHARED() {
    mu_.lock_shared();
    if constexpr (chk::kCheckedEnabled) {
      try {
        chk::lockorder::on_acquire(site_);
      } catch (...) {
        mu_.unlock_shared();
        throw;
      }
    }
  }

  void unlock_shared() BFC_RELEASE_SHARED() {
    chk::lockorder::on_release(site_);
    mu_.unlock_shared();
  }

  [[nodiscard]] bool try_lock_shared() BFC_TRY_ACQUIRE_SHARED(true) {
    const bool ok = mu_.try_lock_shared();
    if (ok) chk::lockorder::on_try_acquire(site_);
    return ok;
  }

 private:
  std::shared_mutex mu_;  // bfc-lint: raw-sync-ok (the wrapper itself)
  chk::lockorder::SiteId site_;
};

/// RAII exclusive lock of a Mutex. Supports the worker-loop pattern of
/// temporarily dropping the lock around out-of-lock work via unlock()/lock()
/// — the analysis tracks the capability through those calls.
class BFC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) BFC_ACQUIRE(mu) : mu_(&mu), owns_(true) {
    mu_->lock();
  }

  ~MutexLock() BFC_RELEASE() {
    if (owns_) mu_->unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Drops the lock early (e.g. to run a callback that must not be held
  /// under it); pair with lock() to reacquire.
  void unlock() BFC_RELEASE() {
    mu_->unlock();
    owns_ = false;
  }

  void lock() BFC_ACQUIRE() {
    mu_->lock();
    owns_ = true;
  }

  /// The wrapped mutex — for CondVar::wait, which needs to release and
  /// reacquire it atomically with the sleep.
  [[nodiscard]] Mutex& mutex() noexcept { return *mu_; }

 private:
  Mutex* mu_;
  bool owns_;
};

/// RAII exclusive lock of a SharedMutex (the writer side).
class BFC_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) BFC_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  ~WriterLock() BFC_RELEASE() { mu_->unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII shared (reader) lock of a SharedMutex.
class BFC_SCOPED_CAPABILITY SharedLock {
 public:
  explicit SharedLock(SharedMutex& mu) BFC_ACQUIRE_SHARED(mu) : mu_(&mu) {
    mu_->lock_shared();
  }
  ~SharedLock() BFC_RELEASE_GENERIC() { mu_->unlock_shared(); }

  SharedLock(const SharedLock&) = delete;
  SharedLock& operator=(const SharedLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable bound to bfc::Mutex. wait() atomically releases the
/// lock, sleeps, and reacquires before returning; the release/reacquire is
/// invisible to the static analysis (the capability is held on entry and on
/// exit), and the lock-order checker observes the reacquisition through the
/// Mutex hooks. Spurious wakeups are possible — always wait in a predicate
/// loop:
///
///   while (!ready_)        // ready_ is BFC_GUARDED_BY(mu_)
///     cv_.wait(lock);      // lock is a MutexLock on mu_
///
/// Keeping the predicate in the caller (rather than a predicate-taking
/// overload) is deliberate: the loop reads guarded fields, and in caller
/// code the analysis can see the MutexLock that guards them.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.mutex()); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  // condition_variable_any, not condition_variable: it waits on any
  // BasicLockable, so the sleep releases/reacquires through bfc::Mutex's
  // own lock()/unlock() and the lock-order hooks keep firing.
  std::condition_variable_any cv_;  // bfc-lint: raw-sync-ok (wrapper itself)
};

/// A shared_ptr slot that one writer replaces while readers load it without
/// ever blocking the writer: the publish/pin point of the snapshot stores.
/// The production build is an atomic<shared_ptr>, where a release store
/// publishes a fully constructed object and an acquire load sees all of it.
/// Under TSan only, the slot is a mutex-guarded shared_ptr instead:
/// libstdc++'s atomic<shared_ptr> embeds a spin lock in the control word
/// that TSan cannot see through, so it would report every store/load pair
/// as a data race. `site` names that mutex for the lock-order checker.
template <typename T>
class PublishedPtr {
 public:
  explicit PublishedPtr([[maybe_unused]] const char* site) noexcept
#if defined(__SANITIZE_THREAD__)
      : mu_(site)
#endif
  {
  }

  PublishedPtr(const PublishedPtr&) = delete;
  PublishedPtr& operator=(const PublishedPtr&) = delete;

  [[nodiscard]] std::shared_ptr<T> load_acquire() const {
#if defined(__SANITIZE_THREAD__)
    const MutexLock lock(mu_);
    return ptr_;
#else
    // acquire: pairs with store_release() so the loaded object's
    // contents are fully visible to the reader.
    return ptr_.load(std::memory_order_acquire);
#endif
  }

  void store_release(std::shared_ptr<T> next) {
#if defined(__SANITIZE_THREAD__)
    const MutexLock lock(mu_);
    ptr_ = std::move(next);
#else
    // release: publishes the fully constructed object (see load_acquire()).
    ptr_.store(std::move(next), std::memory_order_release);
#endif
  }

 private:
#if defined(__SANITIZE_THREAD__)
  mutable Mutex mu_;
  std::shared_ptr<T> ptr_ BFC_GUARDED_BY(mu_);
#else
  std::atomic<std::shared_ptr<T>> ptr_;
#endif
};

}  // namespace bfc
