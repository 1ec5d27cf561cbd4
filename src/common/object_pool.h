#pragma once

/// \file object_pool.h
/// Per-thread recycling pools for the gossip hot path: PoolNew recycles the
/// fixed-size message objects themselves, VecPool recycles their entries
/// buffers (capacity and all), and thread_scratch holds the transient
/// selection buffers a gossip call works in. Together they make a warm
/// gossip cycle allocation-free — messages are created and destroyed once
/// per exchange, so without pooling every tick would pay a new/delete pair
/// plus a vector grow even though the sizes never change after warmup — and
/// keep per-node memory down to protocol state.
///
/// All three are thread_local: exp::run_trials runs whole trials on worker
/// threads, so a process-wide freelist would need locks on the hottest path
/// (and would trip TSan). Each thread's freelist is released by its
/// thread_local destructor, which keeps LeakSanitizer clean — CI runs the
/// suite with detect_leaks=1.

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace ares {

/// CRTP base: `struct M : Message, PoolNew<M>` gives M a class-level
/// operator new/delete backed by a per-thread freelist of raw blocks.
/// All blocks have sizeof(M), so any freed block satisfies any allocation.
template <class D>
struct PoolNew {
  static void* operator new(std::size_t n) {
    auto& blocks = freelist().blocks;
    if (!blocks.empty()) {
      void* p = blocks.back();
      blocks.pop_back();
      return p;
    }
    return ::operator new(n);
  }

  static void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    try {
      freelist().blocks.push_back(p);  // may grow the freelist vector
    } catch (...) {
      ::operator delete(p);
    }
  }

 private:
  struct FreeList {
    std::vector<void*> blocks;
    ~FreeList() {
      for (void* p : blocks) ::operator delete(p);
    }
  };
  static FreeList& freelist() {
    thread_local FreeList fl;
    return fl;
  }
};

/// Per-thread pool of std::vector<T> buffers. acquire() hands out a cleared
/// vector that keeps its previous capacity; release() returns it. Intended
/// for message payload vectors: acquire in the constructor, release in the
/// destructor, and steady-state exchanges stop allocating once every buffer
/// has grown to its working size.
template <class T>
class VecPool {
 public:
  static std::vector<T> acquire() {
    auto& bufs = pool().bufs;
    if (bufs.empty()) return {};
    std::vector<T> v = std::move(bufs.back());
    bufs.pop_back();
    v.clear();
    return v;
  }

  static void release(std::vector<T>&& v) noexcept {
    if (v.capacity() == 0) return;
    try {
      pool().bufs.push_back(std::move(v));
    } catch (...) {
      // v's buffer is freed as it goes out of scope
    }
  }

 private:
  struct Pool {
    std::vector<std::vector<T>> bufs;
  };
  static Pool& pool() {
    thread_local Pool p;
    return p;
  }
};

/// One S per thread: the transient buffers of a computation that a node
/// used to keep warm per instance. A call fetches its scratch once and is
/// done with it before it hands a message to the runtime — a synchronous
/// backend (bench/micro_gossip) delivers on this thread, and the receiver's
/// handler fetches the same instance. Buffers keep their capacity across
/// calls, so warm calls do not allocate. Each component names its own S, so
/// two components never share an instance.
template <class S>
S& thread_scratch() {
  thread_local S s;
  return s;
}

}  // namespace ares
