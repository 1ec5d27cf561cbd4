#pragma once

/// \file event_queue.h
/// Min-heap of timestamped events, ordered by (time, key). The caller
/// supplies the tie-break key; the simulator derives it from (source node,
/// per-source counter), which keeps the drain order a pure function of the
/// event set (sim/simulator.h).
///
/// Two layers keep the hot path cheap:
///   - Actions are UniqueAction (move-only, small-buffer) rather than
///     std::function: message-delivery and timer closures stay
///     allocation-free.
///   - The heap orders 24-byte POD keys (time, key, slot, owner) while the
///     actions themselves sit in a stable slot arena. Sift-up/down during
///     push_heap/pop_heap then moves trivial keys instead of 70-byte events
///     (each of whose moves would be an indirect relocate call), so an
///     action is moved exactly twice: into its slot on push, out on pop.
///
/// Owner-guarded events: a push may carry the NodeId whose liveness gates
/// execution (incarnation-safe timers). The owner rides in the key's former
/// padding bytes — the key stays 24 bytes — and the executor (Simulator)
/// probes liveness at pop time. This is what lets
/// Runtime::node_timer() move a caller's UniqueAction straight into the heap
/// with no wrapper closure: nesting one UniqueAction inside another can
/// never fit the inline buffer (the inner object is already kInline+8
/// bytes), so a wrapper would heap-allocate on every timer.

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "common/unique_function.h"

namespace ares {

class EventQueue {
 public:
  using Action = UniqueAction;

  /// Enqueues an action at absolute time `t` (must not precede earlier pops'
  /// times; enforced by the Simulator, not here) with tie-break key `seq`;
  /// equal (t, seq) pairs pop in unspecified order. `owner` != kInvalidNode
  /// marks an owner-guarded event: the executor skips the invoke when the
  /// owner has left the runtime by pop time (the action is still popped and
  /// counted, so drain order is identical either way).
  void push_keyed(SimTime t, std::uint64_t seq, Action action,
                  NodeId owner = kInvalidNode);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  SimTime next_time() const { return heap_.front().time; }

  /// Owner guard of the earliest pending event (kInvalidNode = unguarded).
  /// Precondition: !empty().
  NodeId next_owner() const { return heap_.front().owner; }

  /// Removes and returns the earliest event's action. Precondition: !empty().
  Action pop();

 private:
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
    NodeId owner;        // liveness guard; kInvalidNode = unguarded

    /// std::push_heap keeps the *greatest* element first, so "greater" here
    /// means "scheduled later": the earliest (time, seq) wins the front slot.
    bool operator<(const Key& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Action> slots_;        // arena; index = Key::slot
  std::vector<std::uint32_t> free_;  // recycled arena indices
};

}  // namespace ares
