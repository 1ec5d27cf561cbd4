#pragma once

/// \file network.h
/// The simulated fully-connected network (§3: "each node can reach any other
/// node") — the discrete-event Runtime backend. Owns all live nodes, assigns
/// monotonically increasing NodeIds (never reused, so a rejoining node gets
/// "a different identity" as in the paper's churn model), delivers messages
/// with model-sampled latency, and drops messages addressed to dead nodes.
///
/// Protocol code never sees this class: SelectionNode and the gossip layers
/// program against runtime/runtime.h only. Network is what the experiment
/// layer (exp/grid.h) and the benchmarks instantiate.
///
/// Transport on the sharded simulator: deliveries are keyed events routed
/// to the destination node's shard, per-message latency is drawn from a
/// hash-derived stream (seeded by (sim seed, event key, dst) — a shared Rng
/// would make draws depend on the drain interleaving), and traffic
/// accounting goes to per-shard NetworkStats instances that stats() folds
/// together on access.

#include <memory>
#include <vector>

#include "runtime/runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "runtime/traffic.h"

namespace ares {

class Network final : public Runtime {
 public:
  Network(Simulator& sim, std::unique_ptr<LatencyModel> latency);
  ~Network() override;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }

  /// Aggregated traffic counters: folds the per-shard instances into the
  /// base instance (coordinator-only; call between windows, never from node
  /// code). Read-only: per-node load is configured through the two calls
  /// below, which reach every instance.
  const NetworkStats& stats();

  /// Installs the per-node load predicate on every stats instance (the
  /// per-shard copies included — drains count traffic there).
  void set_load_filter(NetworkStats::LoadFilter f);

  /// Clears the per-node load counters of every stats instance.
  void reset_node_load();

  // -- Runtime contract ----------------------------------------------------
  SimTime now() const override { return sim_.now(); }
  Rng& rng() override { return sim_.rng(); }

  /// Sends `m` from `from` to `to` with sampled latency. If `to` is dead at
  /// delivery time, the message is counted as dropped.
  void send(NodeId from, NodeId to, MessagePtr m) override;

  /// Incarnation-safe timer for node `id` (owner-guarded event: the action
  /// is dropped at execution time when `id` has left; no wrapper closure).
  void node_timer(NodeId id, SimTime delay, UniqueAction fn) override;

  // -- membership ----------------------------------------------------------
  /// Adds a node: assigns the next NodeId, places it in simulator shard
  /// `shard` (the Grid derives it from the node's cell coordinate),
  /// attaches it, and calls start().
  NodeId add_node(std::unique_ptr<Node> node, std::uint32_t shard = 0);

  /// Sets aside room for `nodes` joins in every per-node array (the node
  /// table, the live-id cache, the simulator's shard and key tables, and
  /// the metric rows), so that they are sized once instead of by doubling.
  /// Joins past it grow them as before.
  void reserve(std::size_t nodes);

  /// Removes a node. `graceful` invokes stop() first (a leave); otherwise
  /// this models a crash. In-flight messages to it are dropped on delivery.
  void remove_node(NodeId id, bool graceful);

  bool alive(NodeId id) const { return id < nodes_.size() && nodes_[id] != nullptr; }
  std::size_t population() const { return population_; }

  /// Live node ids in id order (rebuilt lazily; cheap between membership
  /// changes). The returned reference is invalidated by add/remove.
  const std::vector<NodeId>& alive_ids() const;

  /// Typed access to a live node; nullptr when dead/unknown.
  Node* find(NodeId id) { return alive(id) ? nodes_[id].get() : nullptr; }
  template <typename T>
  T* find_as(NodeId id) {
    return dynamic_cast<T*>(find(id));
  }

 private:
  /// The stats instance the calling thread may write: the base instance on
  /// the coordinator, the worker's shard instance during a drain.
  NetworkStats& stats_sink();

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  NetworkStats stats_;
  /// One instance per shard: drains account traffic without
  /// synchronization; stats() merges deterministically.
  std::vector<NetworkStats> shard_stats_;
  /// Seed of the per-message latency streams.
  std::uint64_t latency_seed_;
  // Wire metric handle, interned up front: counter-name interning mutates
  // the registry and must never happen on a shard worker.
  Metrics::Counter m_wire_bytes_saved_;
  /// Indexed by NodeId: ids are dense and never reused, so slot id holds
  /// that node until it leaves and nullptr after. Mutated on the
  /// coordinator only, between windows, so drains read it without a lock.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::size_t population_ = 0;
  mutable std::vector<NodeId> alive_cache_;
  mutable bool alive_cache_valid_ = false;
};

}  // namespace ares
