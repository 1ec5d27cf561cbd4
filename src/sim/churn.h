#pragma once

/// \file churn.h
/// Membership-dynamics injectors reproducing the paper's three failure
/// workloads (§6.6, §6.7):
///   - replacement churn: a fraction of nodes leaves ungracefully and
///     re-enters under a different identity every period (Gnutella-style
///     0.1 %/0.2 % per 10 s);
///   - massive failure: a one-shot crash of a large random fraction;
///   - decay: repeated kill waves without replacement (the PlanetLab run:
///     10 % of the network every 20 minutes).

#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "sim/network.h"

namespace ares {

class ChurnDriver {
 public:
  /// Creates a replacement node (fresh attributes + bootstrap contact); the
  /// network assigns its identity on add, and ChurnDriver places it on
  /// simulator shard 0 (Grid::churn_factory relies on that).
  using NodeFactory = std::function<std::unique_ptr<Node>()>;

  explicit ChurnDriver(Network& net, NodeFactory factory = nullptr);

  /// Marks a node as never selected as a victim (e.g. an observer that
  /// issues measurement queries).
  void protect(NodeId id) { protected_.insert(id); }

  /// Every `period`, crash max(1, fraction*N) random nodes and add the same
  /// number of fresh replacements. Runs until stop() or network teardown.
  void start_replacement_churn(double fraction, SimTime period);

  /// Every `period`, crash fraction*N of the *current* population without
  /// replacement, `waves` times.
  void start_decay(double fraction, SimTime period, int waves);

  void stop() { running_ = false; }

  /// One-shot simultaneous crash of `fraction` of the current population.
  /// Returns the number of nodes killed.
  std::size_t fail_fraction(double fraction);

  /// One-shot crash of `count` random unprotected nodes (clamped to the
  /// available population). Returns the number killed.
  std::size_t kill(std::size_t count);

  std::uint64_t total_killed() const { return killed_; }
  std::uint64_t total_added() const { return added_; }

 private:
  void churn_tick(double fraction, SimTime period);
  void decay_tick(double fraction, SimTime period, int waves_left);
  std::vector<NodeId> pick_victims(std::size_t count);

  Network& net_;
  NodeFactory factory_;
  std::unordered_set<NodeId> protected_;
  bool running_ = false;
  std::uint64_t killed_ = 0;
  std::uint64_t added_ = 0;
};

}  // namespace ares
