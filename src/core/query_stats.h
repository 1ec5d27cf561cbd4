#pragma once

/// \file query_stats.h
/// Concrete QueryObserver collecting the paper's metrics:
///   - routing overhead: query deliveries at nodes that did not match,
///     excluding the originator (§6: "the average number of hops traveled by
///     a query through nodes that did not match the query themselves");
///   - hits: distinct matching nodes reached (delivery numerator);
///   - duplicates: repeat visits of the same node by one query (the paper
///     reports zero; our property tests assert it);
///   - forwards: query-message hops (per query and total), the denominator
///     of hops-per-query in the throughput benchmarks.
///
/// Lock-free by ownership, on the per-shard NetworkStats discipline
/// (sim/network.h). The observer callbacks write one Sink per simulator
/// shard, and each node reports to the sink of the shard it was placed on
/// (Grid::make_node). A sink therefore has one writer at a time — its
/// shard's worker inside a drain, the coordinator between windows — and
/// every visit of a given node lands in the same sink, so duplicate
/// detection stays exact. The readers fold the sinks together when called.
/// They are coordinator-only, like Network::stats(): call them post-run or
/// between simulation steps, never while shard workers drain. Every count
/// is a commutative sum over the event set, so folded state reads the same
/// at any shard count.

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/selection_node.h"

namespace ares {

class QueryStats {
 public:
  /// A query's counters: all a sink row holds when visits are not tracked.
  struct Counts {
    NodeId origin = kInvalidNode;
    std::uint32_t overhead = 0;    // non-matching, non-origin deliveries
    std::uint32_t hits = 0;        // distinct matching nodes visited
    std::uint32_t duplicates = 0;  // repeat visits (any kind)
    std::uint32_t forwards = 0;    // query-message hops sent for this query
    bool completed = false;
    std::size_t result_size = 0;
  };

  /// A row as the readers see it, folded over the sinks.
  struct PerQuery : Counts {
    std::unordered_set<NodeId> visited;          // iff track_visited
    std::unordered_set<NodeId> matched_visited;  // iff track_visited
  };

  /// One shard's share of the accounting: the observer that shard's nodes
  /// call. Single writer (see the file comment); cache-line aligned because
  /// neighbouring sinks are written by different workers.
  class alignas(64) Sink final : public QueryObserver {
   public:
    explicit Sink(bool track_visited) : track_visited_(track_visited) {}

    void on_query_visited(QueryId q, NodeId node, bool matched,
                          bool is_origin) override;
    void on_query_forwarded(QueryId q, NodeId from, NodeId to, int level,
                            int dim) override;
    void on_query_completed(QueryId q, NodeId origin,
                            const std::vector<MatchRecord>& matches) override;

   private:
    friend class QueryStats;

    struct Visits {
      std::unordered_set<NodeId> all;
      std::unordered_set<NodeId> matched;
    };
    /// The sets live behind a pointer, allocated on a row's first visit
    /// only when visits are tracked: an untracked row is its counters.
    struct Row : Counts {
      std::unique_ptr<Visits> visits;
    };

    bool track_visited_;
    std::unordered_map<QueryId, Row> sink_rows_;
    std::uint64_t overhead_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t forwards_ = 0;
    std::uint64_t completed_ = 0;
  };

  /// \param track_visited keep per-query visited sets (exact duplicate and
  ///        delivery accounting). Disable for very large sweeps; duplicates
  ///        then read 0 and `hits` counts deliveries, which is identical as
  ///        long as the protocol keeps its exactly-once property.
  /// \param sinks one per simulator shard, >= 1
  explicit QueryStats(bool track_visited = true, std::uint32_t sinks = 1);

  // Nodes hold pointers to the sinks.
  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  /// The observer for the nodes on simulator shard `shard`.
  Sink& sink(std::uint32_t shard) { return sinks_[shard]; }

  /// The query's row summed over every sink that saw it; nullptr when none
  /// did. Valid until the next find() or clear().
  const PerQuery* find(QueryId q) const;

  /// Every row summed over the sinks, ordered by QueryId so consumers that
  /// iterate (reports, per-query dumps) see a deterministic sequence.
  /// Rebuilt on each call.
  const std::map<QueryId, PerQuery>& per_query() const;

  std::uint64_t total_overhead() const { return sum(&Sink::overhead_); }
  std::uint64_t total_hits() const { return sum(&Sink::hits_); }
  std::uint64_t total_duplicates() const { return sum(&Sink::duplicates_); }
  std::uint64_t total_forwards() const { return sum(&Sink::forwards_); }
  std::uint64_t completed_count() const { return sum(&Sink::completed_); }

  /// Mean routing overhead per observed query: the total over the number of
  /// distinct query ids any sink saw. With coalescing on, a shared
  /// traversal's synthetic id counts as a query too.
  double mean_overhead() const;

  void clear();

 private:
  std::uint64_t sum(std::uint64_t Sink::*field) const;
  /// Adds one sink's row for a query into the summed row.
  static void add_row(PerQuery& into, const Sink::Row& row);

  std::vector<Sink> sinks_;  // sized once at construction, never reallocated
  /// The summed row find() hands out, and the rows per_query() does.
  mutable PerQuery found_;
  mutable std::map<QueryId, PerQuery> folded_;
};

}  // namespace ares
