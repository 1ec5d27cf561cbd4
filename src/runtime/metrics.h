#pragma once

/// \file metrics.h
/// Per-node instrumentation registry — the measurement seam between the
/// protocol core and the experiment layer. Protocol code bumps named
/// counters against its own NodeId without knowing who (if anyone) is
/// listening; the experiment layer aggregates across nodes after (or
/// during) a run. Each node writes only its own rows, so the registry needs
/// no lock.
///
/// The registry is owned by the Runtime a node is attached to, so the same
/// protocol code is metered identically under the discrete-event simulator,
/// the loopback runtime, and any future socket transport.
///
/// Counter names are dotted strings ("query.timeouts", "gossip.cycles");
/// keep them stable — benchmarks and tests key on them.
///
/// Hot-path protocol increments should intern the name once (counter()) and
/// bump through the returned handle: inc(node, handle) is a vector index
/// plus an add, with no string hashing or map lookup. The string-keyed
/// overloads remain for tests and one-off call sites.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ares {

class Metrics {
 public:
  /// Pre-interned counter handle; stable for the lifetime of this registry
  /// (clear() resets values, not handles).
  using Counter = std::uint32_t;

  /// Interns `name` and returns its handle (idempotent). Cold path.
  Counter counter(std::string_view name);

  /// Bumps the counter by `delta` for `node`. Hot path: no string lookup.
  void inc(NodeId node, Counter c, std::uint64_t delta = 1);

  /// Bumps the named per-node counter by `delta` (interns on first use).
  void inc(NodeId node, std::string_view name, std::uint64_t delta = 1) {
    inc(node, counter(name), delta);
  }

  /// Sum of the named counter over all nodes (0 when never bumped).
  std::uint64_t total(std::string_view name) const;

  /// The named counter for one node (0 when never bumped).
  std::uint64_t node_value(NodeId node, std::string_view name) const;

  /// Per-node nonzero values of the named counter (empty when never
  /// bumped). Iteration order is by NodeId (ascending).
  std::vector<std::pair<NodeId, std::uint64_t>> by_node(std::string_view name) const;

  /// All counter names bumped so far (interned-but-untouched names are
  /// excluded), sorted.
  std::vector<std::string> counter_names() const;

  /// Pre-sizes every counter's per-node vector for node ids < n. The
  /// sharded simulator (sim/simulator.h) runs node code on shard workers,
  /// where inc()'s lazy grow would race; backends call this on every join
  /// so worker-phase increments are plain writes to pre-existing rows.
  void reserve_nodes(std::size_t n);

  /// Sets aside room in every counter's per-node vector, those interned
  /// later included, for node ids < n, so that joins up to n never
  /// reallocate a row. Joins past n grow the rows as before.
  void reserve_capacity(std::size_t n);

  /// The registry plus the heap it owns: the per-node rows and the names.
  std::size_t memory_bytes() const;

  /// Drops all counter values (between experiment phases). Interned
  /// handles stay valid. Coordinator-only, like every other registry
  /// mutation outside inc().
  void clear();

 private:
  struct Slot {
    std::string name;
    std::vector<std::uint64_t> by_node;  // dense, indexed by NodeId
  };

  const Slot* find(std::string_view name) const;

  std::vector<Slot> slots_;
  std::size_t reserved_nodes_ = 0;
  std::size_t capacity_nodes_ = 0;  // reserve_capacity()
  // Keys are owned copies (not views into slots_: Slot moves on vector
  // growth would dangle SSO string views). std::less<> gives heterogeneous
  // string_view lookup; interning is cold, so a tree map is fine.
  // slots_/index_ mutate on the coordinator only (counter() interning,
  // reserve_nodes() on join).
  std::map<std::string, Counter, std::less<>> index_;
};

inline void Metrics::inc(NodeId node, Counter c, std::uint64_t delta) {
  Slot& s = slots_[c];
  // Lazy-grow fallback for runtimes that never call reserve_nodes() (the
  // loopback tests). Under the sharded simulator every live id is reserved
  // on join, so worker-phase increments never take this branch.
  if (node >= s.by_node.size()) s.by_node.resize(node + 1, 0);
  s.by_node[node] += delta;
}

}  // namespace ares
