// qoesim -- capability annotations for shard ownership and mutex guards.
//
// The ROADMAP's conservative-PDES engine will run one scenario across
// worker threads, sharded at link boundaries. Its prerequisite is that
// every piece of per-shard state -- the scheduler arena, in-flight and
// queue rings, the node demux, per-link RNG streams -- is provably touched
// only by the shard that owns it. This header makes that a compile-time
// property using clang's thread-safety analysis (-Wthread-safety), the
// same machinery Abseil and Chromium use for mutexes, applied to a
// *phantom* capability: "executing on the owning shard".
//
// Three layers:
//
//   1. QOESIM_* attribute macros: thin wrappers over clang's thread-safety
//      attributes, no-ops on every other compiler (gcc builds are
//      unaffected; the clang CI jobs promote violations to errors with
//      -Werror=thread-safety).
//
//   2. Mutex / MutexLock: std::mutex wrappers carrying the capability
//      annotations libstdc++ lacks, so mutex-guarded state (StatsFold
//      accumulators, SweepRunner failure slots) is statically checked.
//
//   3. ShardToken / shard_plane / ShardAffinity / ShardGuard: the shard
//      capability itself. `shard_plane` is a phantom token -- it has no
//      runtime state; holding it means "this code runs on the shard that
//      owns the engine objects it touches". Functions on the hot plane
//      are annotated QOESIM_REQUIRES_SHARD; public entry points assert
//      the capability (ShardAffinity::assert_held), which doubles as a
//      debug-build runtime check of the owning thread id; epoch drivers
//      (Scheduler::run / run_until) hold it via ShardGuard.
//
// The static analysis cannot distinguish shard A from shard B (there is
// one global token), so the dynamic half lives in ShardAffinity: each
// Scheduler owns one, records the executing thread at epoch start, and
// asserts it on every hot entry point. Release builds compile the check
// out entirely.
//
// How to annotate new state (see README "shard-ownership contract"):
//   - engine-internal functions that touch per-shard state:
//       void do_thing() QOESIM_REQUIRES_SHARD;
//   - public entry points callable from setup code and event callbacks:
//       first statement `sim_.shard().assert_held();`
//   - data members guarded by a real mutex:
//       Mutex mutex_; T state_ QOESIM_GUARDED_BY(mutex_);
//   - classes whose instances belong to one shard: mark the class head
//       class QOESIM_SHARD_PLANE Foo { ... };
//     (qoesim_lint's shard-state check then requires every mutable or
//     shared_ptr member to carry an ownership annotation).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#if defined(__clang__)
#define QOESIM_TSA(x) __attribute__((x))
#else
#define QOESIM_TSA(x)  // no-op off clang; gcc sees plain declarations
#endif

#define QOESIM_CAPABILITY(name) QOESIM_TSA(capability(name))
#define QOESIM_SCOPED_CAPABILITY QOESIM_TSA(scoped_lockable)
#define QOESIM_GUARDED_BY(x) QOESIM_TSA(guarded_by(x))
#define QOESIM_PT_GUARDED_BY(x) QOESIM_TSA(pt_guarded_by(x))
#define QOESIM_REQUIRES(...) QOESIM_TSA(requires_capability(__VA_ARGS__))
#define QOESIM_ACQUIRE(...) QOESIM_TSA(acquire_capability(__VA_ARGS__))
#define QOESIM_RELEASE(...) QOESIM_TSA(release_capability(__VA_ARGS__))
#define QOESIM_EXCLUDES(...) QOESIM_TSA(locks_excluded(__VA_ARGS__))
#define QOESIM_ASSERT_CAPABILITY(x) QOESIM_TSA(assert_capability(x))
#define QOESIM_RETURN_CAPABILITY(x) QOESIM_TSA(lock_returned(x))
#define QOESIM_NO_THREAD_SAFETY_ANALYSIS QOESIM_TSA(no_thread_safety_analysis)

/// Marks a class whose instances belong to exactly one shard (scheduler
/// arena, block rings, demux table, ...). Expands to nothing;
/// qoesim_lint's shard-state check keys on the token and requires every
/// mutable or shared-ownership member of such a class to carry a
/// QOESIM_GUARDED_BY / QOESIM_PT_GUARDED_BY annotation.
#define QOESIM_SHARD_PLANE

/// Marks the one sanctioned cross-shard data structure family: SPSC batch
/// buffers that carry value-type records between a producer shard's epoch
/// and a consumer shard's barrier drain (net::ShardMailbox). Expands to
/// nothing; qoesim_lint keys on the token and requires such a class to be
/// pure data -- members that reference shard-plane engine state
/// (Scheduler, Simulation, Node, Link, EventHandle, ...) are flagged,
/// because a channel crossing shards must not reach into either shard's
/// engine objects. Synchronization lives outside the channel (the PDES
/// barrier provides the happens-before), so atomics/mutexes inside one are
/// flagged by the same check.
#define QOESIM_CROSS_SHARD_CHANNEL

namespace qoesim {

/// std::mutex with the capability annotations libstdc++ does not carry,
/// so GUARDED_BY members are actually checked. Lock through MutexLock.
class QOESIM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QOESIM_ACQUIRE() { m_.lock(); }
  void unlock() QOESIM_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// Scoped lock for Mutex (std::lock_guard is invisible to the analysis).
class QOESIM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) QOESIM_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() QOESIM_RELEASE() { m_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

/// Phantom capability "executing on the owning shard". Purely a type for
/// the static analysis; the one instance below never changes at runtime.
class QOESIM_CAPABILITY("shard") ShardToken {
 public:
  constexpr ShardToken() = default;

  /// Static-only bridge: tells the analysis the caller is on the owning
  /// shard, with no runtime check. Use ShardAffinity::assert_held (which
  /// also verifies the thread id in debug builds) wherever an affinity
  /// object is reachable; this exists for leaf components (e.g. a queue
  /// discipline's RNG draw) whose callers were already checked upstream.
  void assert_held() const QOESIM_ASSERT_CAPABILITY(this) {}
};

/// The process-wide shard capability token. One token statically models
/// every shard ("some shard owns this"); which shard is the *dynamic*
/// property ShardAffinity checks.
inline constexpr ShardToken shard_plane{};

/// Shorthand for the common annotation on shard-plane functions.
#define QOESIM_REQUIRES_SHARD QOESIM_REQUIRES(::qoesim::shard_plane)

/// Debug-only runtime half of the shard story: records the owning thread
/// at epoch start and aborts on a cross-thread touch of a live shard.
/// Ownership is per-epoch, not permanent: end_epoch() releases it, so a
/// Simulation may legally migrate between threads *between* runs (sweep
/// cells construct, run, and destroy on one worker; a main thread may
/// inspect results afterwards). Release builds compile the bookkeeping
/// out; the assert_* methods still carry the static capability bridge.
class ShardAffinity {
 public:
  ShardAffinity() = default;
  ShardAffinity(const ShardAffinity&) = delete;
  ShardAffinity& operator=(const ShardAffinity&) = delete;

  /// Adopt the calling thread as the shard owner at epoch start (ShardGuard
  /// calls it; every Scheduler driver, step() included, holds one). Aborts
  /// if another thread currently owns the shard.
  void begin_epoch() QOESIM_ASSERT_CAPABILITY(::qoesim::shard_plane) {
#ifndef NDEBUG
    check_owner();
    owner_ = std::this_thread::get_id();
    active_ = true;
#endif
  }

  /// Release ownership at epoch end; the next epoch may start anywhere.
  void end_epoch() noexcept {
#ifndef NDEBUG
    active_ = false;
#endif
  }

  /// Hot-entry-point check: the calling thread must be the epoch owner
  /// (or no epoch is live -- setup code binding flows before the first
  /// run is legitimate). Static bridge + debug-build thread-id assert.
  void assert_held() const QOESIM_ASSERT_CAPABILITY(::qoesim::shard_plane) {
#ifndef NDEBUG
    check_owner();
#endif
  }

 private:
#ifndef NDEBUG
  void check_owner() const {
    if (active_ && owner_ != std::this_thread::get_id()) {
      std::fprintf(stderr,
                   "qoesim: cross-shard access: engine state touched from a "
                   "thread that does not own the running epoch\n");
      std::abort();
    }
  }

  std::thread::id owner_{};
  bool active_ = false;
#endif
};

/// RAII epoch holder: statically acquires the shard capability, and (when
/// given an affinity) dynamically adopts the calling thread for the
/// scope. Tests driving shard-plane objects directly (FlatTable,
/// BlockRing) construct one with no affinity to satisfy the analysis.
class QOESIM_SCOPED_CAPABILITY ShardGuard {
 public:
  explicit ShardGuard(ShardAffinity* affinity = nullptr)
      QOESIM_ACQUIRE(::qoesim::shard_plane)
      : affinity_(affinity) {
    if (affinity_ != nullptr) affinity_->begin_epoch();
  }
  ~ShardGuard() QOESIM_RELEASE() {
    if (affinity_ != nullptr) affinity_->end_epoch();
  }

  ShardGuard(const ShardGuard&) = delete;
  ShardGuard& operator=(const ShardGuard&) = delete;

 private:
  ShardAffinity* affinity_;
};

}  // namespace qoesim
