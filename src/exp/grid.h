#pragma once

/// \file grid.h
/// The public facade of the library: an in-process deployment of the
/// decentralized resource-selection service. A Grid owns the simulator, the
/// network, the attribute space, and a population of SelectionNodes; it
/// offers node management, query submission, churn hooks, ground-truth
/// evaluation, and the measurement observers the benchmarks use.
///
/// Quick tour (see examples/quickstart.cpp):
///
///   auto space = ares::AttributeSpace::uniform(5, 3, 0, 80);
///   ares::Grid::Config cfg{.space = space, .nodes = 1000};
///   ares::Grid grid(cfg, ares::uniform_points(space, 0, 80));
///   auto q = ares::RangeQuery::any(5).with(0, 40, std::nullopt);
///   auto out = grid.run_query(grid.random_node(), q, /*sigma=*/10);

#include <functional>
#include <memory>
#include <string>

#include "core/query_stats.h"
#include "core/selection_node.h"
#include "core/trace.h"
#include "exp/bootstrap.h"
#include "sim/churn.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace ares {

class Grid {
 public:
  /// Draws the attribute values for a new node.
  using PointGenerator = std::function<Point(Rng&)>;

  struct Config {
    AttributeSpace space;
    std::size_t nodes = 1000;
    ProtocolConfig protocol{};
    /// Oracle mode installs converged routing tables instantly; gossip mode
    /// runs CYCLON+Vicinity for `convergence` of simulated time first.
    bool oracle = true;
    SimTime convergence = 0;
    /// "lan" (DAS-3-like), "wan" (PeerSim runs), "planetlab", or "fixed".
    std::string latency = "wan";
    std::uint64_t seed = 1;
    /// Introducers handed to each joining node in gossip mode.
    std::size_t bootstrap_contacts = 5;
    OracleOptions oracle_options{};
    /// Keep exact per-query visited sets in the stats observer.
    bool track_visited = true;
    /// Record full dissemination trees (see QueryTracer); costs memory per
    /// query, so off by default. Needs shards == 1: the tracer's maps have
    /// no synchronisation, so any other shard count throws
    /// std::invalid_argument.
    bool trace_queries = false;
    /// Simulator shards, in [1, 64]: nodes are partitioned by cell prefix
    /// (shard_of_coord) and drained inside lookahead-window barriers, by a
    /// worker thread per shard when S > 1. Each shard's nodes report to
    /// their own QueryStats sink. Outputs are byte-identical at ANY shard
    /// count (see DESIGN.md §8). Out of range throws std::invalid_argument.
    std::uint32_t shards = 1;
  };

  Grid(Config cfg, PointGenerator generator);
  ~Grid();

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  // -- plumbing ------------------------------------------------------------
  Simulator& sim() { return *sim_; }
  Network& net() { return *net_; }
  DescriptorStore& store() { return *store_; }
  const AttributeSpace& space() const { return cfg_.space; }
  QueryStats& stats() { return *stats_; }
  /// Non-null only when Config::trace_queries is set.
  QueryTracer* tracer() { return tracer_.get(); }
  const Config& config() const { return cfg_; }

  // -- membership ----------------------------------------------------------
  /// Adds a node with explicit attribute values; returns its id.
  NodeId add_node(Point values);
  /// Adds a node with generated values.
  NodeId add_node();
  /// Crashes (non-graceful) or retires (graceful) a node.
  void remove_node(NodeId id, bool graceful = false);
  /// Live protocol-node ids.
  std::vector<NodeId> node_ids();
  /// A uniformly random live node id.
  NodeId random_node();
  SelectionNode& node(NodeId id);

  /// Factory for ChurnDriver: fresh nodes with generated values and random
  /// live introducers.
  ChurnDriver::NodeFactory churn_factory();

  /// Re-runs the oracle bootstrap (after membership changes in oracle mode).
  void rebootstrap();

  // -- queries ---------------------------------------------------------------
  struct QueryOutcome {
    QueryId id = 0;
    bool completed = false;
    std::vector<MatchRecord> matches;
    SimTime latency = 0;  // issue -> completion (valid when completed)
  };

  /// Submits a query at `origin` and runs the simulation until it completes
  /// or `horizon` of simulated time elapses (gossip keeps running).
  QueryOutcome run_query(NodeId origin, const RangeQuery& q,
                         std::uint32_t sigma = kNoSigma,
                         SimTime horizon = 600 * kSecond);

  /// Fire-and-forget submission (drop/churn experiments sample stats later).
  QueryId submit(NodeId origin, const RangeQuery& q, std::uint32_t sigma = kNoSigma);

  /// All live nodes whose values (and dynamic values) match the query.
  std::vector<NodeId> ground_truth(const RangeQuery& q);

 private:
  /// A SelectionNode reporting to the stats sink of simulator shard
  /// `shard`, the shard the caller places it on.
  std::unique_ptr<Node> make_node(Point values, std::uint32_t shard);
  std::vector<PeerDescriptor> sample_introducers(std::size_t k);

  // Every node references cfg_.protocol: declared first, it outlives the
  // network that owns them.
  Config cfg_;
  PointGenerator generator_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<DescriptorStore> store_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<QueryStats> stats_;    // one sink per simulator shard
  std::unique_ptr<QueryTracer> tracer_;  // wraps sink 0 when tracing
  Rng node_seeder_;
};

}  // namespace ares
