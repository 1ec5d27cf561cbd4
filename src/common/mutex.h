#pragma once

/// \file mutex.h
/// Annotated lock primitives — the only mutex the tree uses (lint rule
/// "raw-mutex" forbids std::mutex/std::lock_guard outside src/common).
///
/// ares::Mutex wraps std::mutex with three layers of discipline:
///
///   1. **Capability annotations** (thread_annotations.h): Mutex is an
///      ARES_CAPABILITY, MutexLock a scoped capability, so under clang
///      -Wthread-safety every access to an ARES_GUARDED_BY field is checked
///      at compile time on every translation unit.
///   2. **Structural enforcement on any compiler**: lock()/unlock() are
///      private (MutexLock and CondVar are the only friends), Mutex and
///      MutexLock are non-copyable, and a Mutex cannot be constructed
///      without a name and a rank. The negative-compile harness
///      (tests/static/) pins each of these as a build failure.
///   3. **Lock-rank deadlock detection by construction** (debug builds):
///      each Mutex carries a rank from the documented lock hierarchy
///      (DESIGN.md §11); a thread may only acquire mutexes in strictly
///      increasing rank order. Acquiring out of rank aborts immediately —
///      naming both mutexes — instead of deadlocking on an unlucky
///      schedule. Rank checks compile out under NDEBUG
///      (Mutex::rank_checking_enabled() reports the build's state).
///
/// Usage:
///   class Pool {
///     Mutex mu_{"sim.shard.pool", lockrank::kShardPool};
///     std::uint64_t generation_ ARES_GUARDED_BY(mu_) = 0;
///   };
///   void Pool::advance() {
///     MutexLock lock(&mu_);
///     ++generation_;
///   }
///
/// Adding a new mutex: pick the rank from the hierarchy table in
/// DESIGN.md §11 (a lock acquired while another is held needs a strictly
/// greater rank), name it "<layer>.<component>[.<role>]", and annotate
/// every field it protects with ARES_GUARDED_BY — lint rule "mutex-guard"
/// rejects an ares::Mutex member with no annotated user.

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace ares {

/// The documented lock hierarchy (DESIGN.md §11). Both production locks
/// are pool handshakes; a thread holding rank r may only acquire ranks > r.
/// Gaps are deliberate room for future locks.
namespace lockrank {
/// exp/parallel.cpp — first-exception slot of the trial worker pool.
inline constexpr int kParallelPool = 10;
/// sim/simulator.h — the shard worker pool's window-barrier handshake.
inline constexpr int kShardPool = 20;
/// tests only: leaf rank above every production lock.
inline constexpr int kTest = 1000;
}  // namespace lockrank

#ifdef NDEBUG
inline constexpr bool kMutexRankChecks = false;
#else
inline constexpr bool kMutexRankChecks = true;
#endif

class ARES_CAPABILITY("mutex") Mutex {
 public:
  /// \param name  stable human-readable identity, printed by the rank
  ///              checker ("sim.shard.pool"); must outlive the mutex
  ///              (string literals do).
  /// \param rank  position in the lock hierarchy (lockrank::*).
  explicit Mutex(const char* name, int rank) : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  const char* name() const { return name_; }
  int rank() const { return rank_; }

  /// Whether this build enforces the lock-rank order at runtime (debug
  /// builds only; the death test skips itself when off).
  static constexpr bool rank_checking_enabled() { return kMutexRankChecks; }

 private:
  // RAII-only: MutexLock acquires/releases, CondVar re-blocks on the native
  // handle during waits. A raw mu.lock() call is a compile error everywhere
  // (tests/static/raw_lock_call.cpp), not just a lint finding.
  friend class MutexLock;
  friend class CondVar;

  void lock() ARES_ACQUIRE();
  void unlock() ARES_RELEASE();

  std::mutex mu_;
  const char* name_;
  int rank_;
};

/// Scoped lock over an ares::Mutex — the only way to acquire one.
class ARES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ARES_ACQUIRE(mu) : mu_(mu) { mu_->lock(); }
  ~MutexLock() ARES_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable bound to ares::Mutex. wait() takes the mutex the
/// caller holds (annotated ARES_REQUIRES, so clang checks it) and re-blocks
/// on it; predicate loops are written manually at the call site —
///     while (!ready_) cv_.wait(mu_);
/// — so the analysis sees the guarded reads under the held capability.
class CondVar {
 public:
  /// Atomically releases `mu`, blocks, and re-acquires `mu` before
  /// returning. Spurious wakeups happen; always wait in a predicate loop.
  void wait(Mutex& mu) ARES_REQUIRES(mu);

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ares
