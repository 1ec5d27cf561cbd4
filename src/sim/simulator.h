#pragma once

/// \file simulator.h
/// The discrete-event simulation core: a virtual clock plus event queues
/// drained in deterministic lookahead windows. This is our substitute for
/// PeerSim (and, with different scale/latency parameters, for the DAS-3
/// emulation and the PlanetLab deployment); see DESIGN.md §5 and §8.
///
/// Nodes are partitioned into S shards (the Grid uses the cell-prefix map
/// shard_of_coord(), so attribute-space neighbours — who exchange most of
/// the traffic — tend to share a shard). Each shard owns an EventQueue;
/// virtual time advances in windows of length Δ = the latency model's
/// minimum one-way latency (the conservative-PDES lookahead). Within a
/// window:
///
///   1. The *coordinator* (the thread driving the Simulator) drains its own
///      queue first — experiment-driver events (churn, measurement) observe
///      node state as of the start of the window, for every shard count.
///   2. Each shard with pending events in the window is drained in
///      (time, key) order, by a worker thread when more than one shard has
///      work and inline on the coordinator otherwise. Same-shard follow-ups
///      (timers, self-sends) push straight into the draining heap;
///      cross-shard sends go to a per-source-shard outbox. Because every
///      message travels >= Δ, a cross-shard event can never land inside the
///      window that produced it (asserted).
///   3. At the barrier the coordinator merges all outboxes into the target
///      queues, iterating source shards in ascending order.
///
/// Determinism at ANY shard count is a consequence of the event key: every
/// event carries (time, (src_node << 32) | per-source-counter) and queues
/// order by that key, so the drain order of a shard's heap — and therefore
/// each node's observed history — is a pure function of the event set, not
/// of which shard produced an event or when the mailbox delivered it. The
/// per-source counters themselves are shard-count independent by induction:
/// node X's counter is bumped only by X's own event executions (nodes send
/// as themselves) or by coordinator-phase code, both of which are ordered
/// identically for every S. tests/exp/sharded_determinism_test.cpp checks
/// the end-to-end property.
///
/// Threading contract (DESIGN.md §11): membership changes,
/// set_node_shard(), alloc_key() for unseen ids, rng() and
/// schedule_at()/schedule_after() are coordinator-only. During a drain,
/// shared mutable state is limited to the seams that are explicitly
/// per-shard here and in sim/network.h (per-shard NetworkStats, outboxes);
/// everything else a worker touches belongs to its own nodes. The pool
/// handshake state is capability-annotated (ARES_GUARDED_BY(mu_)) and
/// checked by clang -Wthread-safety; the ares-lint "shard-seam" rule keeps
/// the keyed-scheduling primitives out of protocol code.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/event_queue.h"

namespace ares {

class Simulator {
 public:
  /// The pool's work set is a 64-bit mask, one bit per shard.
  static constexpr std::uint32_t kMaxShards = 64;

  /// \param shards number of shards, in [1, kMaxShards]; S > 1 spawns one
  ///        worker thread per shard
  /// \param window the lookahead Δ in microseconds, > 0; every cross-shard
  ///        message latency must be >= window (the latency model's
  ///        min_latency()). The 1 µs default is below every model's floor.
  /// \throws std::invalid_argument when either is out of range
  explicit Simulator(std::uint64_t seed = 1, std::uint32_t shards = 1,
                     SimTime window = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Context-aware clock: the draining shard's clock inside a drain, the
  /// coordinator clock otherwise.
  SimTime now() const;

  /// The seed this simulator was constructed with (the transport derives
  /// per-message latency streams from it; see sim/network.h).
  std::uint64_t seed() const { return seed_; }

  std::uint32_t shards() const { return shards_; }
  SimTime window() const { return window_; }

  /// Runtime-level randomness. Coordinator-only: draws inside a drain would
  /// make outcomes depend on the drain interleaving (asserted).
  Rng& rng() {
    assert(current_shard() < 0);
    return rng_;
  }

  /// Shard of the calling thread: 0..S-1 inside a drain, -1 on the
  /// coordinator. Thread-local; also -1 on threads no simulator met.
  static int current_shard() { return tls_shard_; }

  /// Maps a node to its shard. Coordinator-only; call before the node's
  /// start() runs (Network::add_node does).
  void set_node_shard(NodeId id, std::uint32_t shard);

  /// Sets aside room for node ids < n in the per-node tables, so that joins
  /// up to n never reallocate them. Coordinator-only.
  void reserve_nodes(std::size_t n) {
    node_shard_.reserve(n);
    src_ctr_.reserve(n);
  }

  /// Allocates the next event key for source node `src`:
  /// (src << 32) | counter. Growing the table is coordinator-only; drains
  /// may only allocate for already-registered ids (their own nodes).
  std::uint64_t alloc_key(NodeId src);

  /// Schedules a keyed event owned by node `owner` at absolute time `t`.
  /// Late times are clamped to the caller's clock and counted. Inside a
  /// drain, cross-shard events must satisfy t >= the current window end.
  /// `guard` != kInvalidNode makes the event owner-guarded: the drain pops
  /// it but skips the invoke when `guard` fails the liveness probe.
  void schedule(NodeId owner, std::uint64_t key, SimTime t, EventQueue::Action a,
                NodeId guard = kInvalidNode);

  /// Schedules a coordinator event (experiment drivers) at absolute virtual
  /// time `t`. A `t` already in the past is clamped to now() and counted in
  /// late_events() — a persistently growing count usually flags a
  /// scheduling bug in the caller. Coordinator-only, checked in every build:
  /// a call from node code inside a drain aborts.
  void schedule_at(SimTime t, EventQueue::Action action);

  /// Schedules a coordinator event after `delay` (clamped to >= 0).
  void schedule_after(SimTime delay, EventQueue::Action action);

  /// Installs the liveness probe consulted for owner-guarded events at
  /// execution time (Runtime backends install their alive() check). It runs
  /// on shard workers during window drains, so it must be a read-only check
  /// (membership changes are coordinator-only).
  void set_liveness(std::function<bool(NodeId)> probe) { alive_ = std::move(probe); }

  /// Schedules an owner-guarded event after `delay`: the action is dropped
  /// (popped but not invoked) when `owner` fails the liveness probe at
  /// execution time. This is the backend half of Runtime::node_timer(): the
  /// caller's move-only action lands in the owner's shard heap with no
  /// wrapper closure, so timers stay allocation-free.
  void schedule_owned_after(SimTime delay, NodeId owner, EventQueue::Action action);

  /// Executes the next window of events. Returns false when nothing is
  /// pending.
  bool step();

  /// Runs until the queues drain or the clock passes `t` (events at exactly
  /// `t` are executed). Returns the number of events executed.
  std::uint64_t run_until(SimTime t);

  /// Runs until the queues drain. Returns the number of events executed.
  std::uint64_t run();

  bool idle() const { return next_time() == kNoEvent; }
  std::size_t pending_events() const;
  std::uint64_t executed_events() const;

  /// Number of schedule calls whose target time was already in the past
  /// (silently clamped to the caller's clock).
  std::uint64_t late_events() const;

 private:
  /// No pending event.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  /// A cross-shard event parked in its source shard's outbox until the
  /// window barrier.
  struct Outgoing {
    std::uint32_t dst;
    SimTime t;
    std::uint64_t key;
    NodeId guard;
    EventQueue::Action action;
  };

  /// Cache-line separation: adjacent shards' clocks and counters are
  /// written concurrently during the worker phase.
  struct alignas(64) ShardState {
    EventQueue queue;
    SimTime now = 0;
    std::uint64_t executed = 0;
    std::uint64_t late = 0;
    std::vector<Outgoing> outbox;
  };

  std::uint32_t shard_of(NodeId id) const {
    return id < node_shard_.size() ? node_shard_[id] : 0;
  }

  /// True when the event may run: unguarded, no probe, or guard alive.
  bool may_run(NodeId guard) const {
    return guard == kInvalidNode || alive_ == nullptr || alive_(guard);
  }

  /// Earliest pending event time across all queues; kNoEvent when idle.
  SimTime next_time() const;

  /// Executes the next non-empty window, restricted to events with
  /// time <= limit. With `merge` at S=1 the drain runs on through the
  /// windows before the next coordinator event's window. Returns the number
  /// of events executed (0 when nothing is pending at or before `limit`).
  std::uint64_t run_window(SimTime limit, bool merge);
  void drain_shard(std::uint32_t s, SimTime end_excl);
  void worker_main(std::uint32_t s);

  /// Workers set their shard index on entry; the inline solo-drain path
  /// sets and restores it around the drain.
  static inline thread_local int tls_shard_ = -1;

  Rng rng_;
  std::uint64_t seed_;
  std::uint32_t shards_;
  SimTime window_;
  std::vector<ShardState> shard_;
  EventQueue coord_queue_;
  SimTime coord_now_ = 0;
  std::uint64_t coord_executed_ = 0;
  std::uint64_t coord_late_ = 0;
  std::uint64_t coord_ctr_ = 0;            // coordinator event keys
  std::vector<std::uint32_t> node_shard_;  // NodeId -> shard
  std::vector<std::uint32_t> src_ctr_;     // NodeId -> per-source counter
  std::function<bool(NodeId)> alive_;      // owner-guard probe (may be null)

  // Worker pool (spawned only when shards > 1). Handshake: the coordinator
  // publishes {window_end_, work_mask_} under mu_, bumps generation_, and
  // waits for active_ to reach zero. Windows where a single shard has work
  // skip the pool and drain inline on the coordinator thread.
  //
  // Exclusive end of the in-flight window. Written by the coordinator only
  // while no worker runs; workers read it during drains (the cross-shard
  // lookahead assert in schedule()).
  // ordering: relaxed — publication happens-before worker reads via the mu_
  // generation handshake; the atomic only keeps the in-drain asserts
  // race-free.
  std::atomic<SimTime> window_end_{0};
  Mutex mu_{"sim.shard.pool", lockrank::kShardPool};
  CondVar start_cv_, done_cv_;
  std::uint64_t generation_ ARES_GUARDED_BY(mu_) = 0;
  std::uint64_t work_mask_ ARES_GUARDED_BY(mu_) = 0;
  std::uint32_t active_ ARES_GUARDED_BY(mu_) = 0;
  bool stop_ ARES_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // after everything the workers use
};

}  // namespace ares
