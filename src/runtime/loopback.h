#pragma once

/// \file loopback.h
/// LoopbackRuntime: an in-process Runtime with immediate (zero-latency)
/// message delivery and a manually advanced clock. Built for unit tests:
/// protocol layers (cyclon, vicinity, the selection state machine) run
/// against it without spinning up a Simulator/Network pair, and the test
/// controls time explicitly with advance()/run_until().
///
/// Delivery semantics: send() encodes the message and enqueues the frame;
/// frames drain in FIFO order at the current clock value and are decoded at
/// delivery (never reentrantly from inside send(), so a node's handler
/// always runs to completion before replies it triggered are delivered —
/// same as the simulator, minus the latency). Codec failures are dropped and
/// metered as in UdpRuntime. Timers fire in (time, schedule-order) order;
/// messages produced by a timer drain before the next timer fires.

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "runtime/runtime.h"

namespace ares {

class LoopbackRuntime final : public Runtime {
 public:
  explicit LoopbackRuntime(std::uint64_t seed = 1);
  ~LoopbackRuntime() override;

  LoopbackRuntime(const LoopbackRuntime&) = delete;
  LoopbackRuntime& operator=(const LoopbackRuntime&) = delete;

  // -- Runtime contract ----------------------------------------------------
  SimTime now() const override { return now_; }
  Rng& rng() override { return rng_; }
  void send(NodeId from, NodeId to, MessagePtr m) override;
  void node_timer(NodeId id, SimTime delay, UniqueAction fn) override;

  // -- membership (NodeIds are never reused) -------------------------------
  /// Adds a node: assigns the next NodeId, attaches it, and calls start().
  NodeId add_node(std::unique_ptr<Node> node);

  /// Removes a node. `graceful` invokes stop() first (a leave); otherwise
  /// this models a crash. Queued messages to it are dropped on drain.
  void remove_node(NodeId id, bool graceful);

  bool alive(NodeId id) const { return nodes_.contains(id); }
  std::size_t population() const { return nodes_.size(); }

  /// Typed access to a live node; nullptr when dead/unknown.
  Node* find(NodeId id);
  template <typename T>
  T* find_as(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }

  // -- manual clock --------------------------------------------------------
  /// Delivers queued messages, then fires due timers (and the deliveries
  /// they trigger) up to and including `t`; the clock ends at `t`.
  void run_until(SimTime t);

  /// run_until(now() + dt).
  void advance(SimTime dt) { run_until(now_ + dt); }

  /// Drains the message queue at the current clock value (cascading: a
  /// delivery that sends more messages has them delivered too).
  void deliver_pending();

  bool idle() const { return inbox_.empty() && timers_.empty(); }
  std::size_t pending_timers() const { return timers_.size(); }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Envelope {
    NodeId from;
    NodeId to;
    std::vector<std::uint8_t> frame;
  };
  struct Timer {
    SimTime at;
    std::uint64_t seq;  // FIFO among equal times
    NodeId owner;
    UniqueAction fn;
    bool operator>(const Timer& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  SimTime now_ = 0;
  Rng rng_;
  std::unordered_map<NodeId, std::unique_ptr<Node>> nodes_;
  NodeId next_id_ = 0;
  std::deque<Envelope> inbox_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t timer_seq_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace ares
