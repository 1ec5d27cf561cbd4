#pragma once

/// \file selection_node.h
/// The protocol node: a compute resource that represents *itself* in the
/// overlay (no delegation) and implements the query-routing state machine of
/// Figure 5 plus the two-layer gossip maintenance of §5.
///
/// Correctness sketch (verified by property tests in
/// tests/core/routing_properties_test.cpp): with converged routing tables
/// and no churn, a query visits every matching node exactly once. The
/// N(l,k) subcells of all levels plus C_0 partition the space around any
/// node. The DFS scans dimensions in ascending order and clears a dimension
/// bit exactly when it forwards along it; a receiver Y in N(l,k)(X) shares
/// X's half-assignment below dimension k, so for any dimension k' < k left
/// set in the mask, N(l,k')(Y) equals N(l,k')(X) and X left it set only
/// because the (deterministic) overlap test failed — Y's test fails
/// identically. Hence explored subregions never overlap, and the union of
/// regions delegated from any node reconstructs its whole enclosing cell.

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/sorted.h"
#include "core/messages.h"
#include "core/result_cache.h"
#include "core/routing_table.h"
#include "gossip/cyclon.h"
#include "gossip/vicinity.h"
#include "runtime/runtime.h"

namespace ares {

/// Tunables for one node. Defaults mirror the paper's Table 1.
struct ProtocolConfig {
  bool gossip_enabled = true;
  SimTime gossip_period = 10 * kSecond;
  CyclonConfig cyclon;
  VicinityConfig vicinity;
  RoutingConfig routing;
  /// Routing-table entries older than this many gossip cycles are purged.
  /// Mirrors VicinityConfig::max_age (routing entries are refreshed from
  /// the vicinity view each cycle and carry its ages).
  std::uint32_t rt_max_age = 50;
  /// The paper's T(q): when a forwarded branch is silent this long, the
  /// neighbor is considered failed. 0 disables timeouts (the paper's §6.6
  /// measurement mode, where a broken-link branch is simply dropped).
  /// SIZE IT GENEROUSLY: a child replies only after its whole subtree
  /// completes (the DFS is sequential), so T(q) must exceed the worst-case
  /// subtree latency (~2 x RTT x subtree size). A premature timeout treats
  /// an alive neighbor as dead — and purges it from the routing table and
  /// gossip views, actively damaging a healthy overlay.
  SimTime query_timeout = 0;
  /// With timeouts enabled, retry the subcell through a backup neighbor.
  bool retry_alternates = true;
  /// Extension (off by default = paper-faithful): when forwarding into a
  /// subcell, prefer a known candidate that itself lies inside the query
  /// region, saving one non-matching hop. Measured in
  /// bench/ablation_query_shape.
  bool query_aware_forwarding = false;
  /// Extension (0 = off = paper-faithful): per-node LRU cache of resolved
  /// branch fragments (core/result_cache.h). A branch about to forward into
  /// a subcell first checks whether an identical fragment was resolved
  /// recently and, on a hit, absorbs the records without any messaging.
  /// Only replies flagged complete are cached; queries with dynamic filters
  /// bypass the cache entirely.
  std::size_t result_cache_capacity = 0;
  /// Cache entries older than this many gossip cycles are dropped, bounding
  /// churn staleness by horizon x gossip_period. With gossip disabled
  /// entries never age (a static deployment cannot go stale).
  std::uint32_t result_cache_horizon = 8;
  /// Extension (off by default): overlapping concurrent branches into the
  /// same subcell share one traversal. A branch attaches as a rider to an
  /// in-flight shared traversal whose fragment key covers its own;
  /// otherwise it opens one, sent at once with its own query. The records
  /// fan out to every rider, filtered to its own ranges. Only sigma-less
  /// (kNoSigma) queries without dynamic filters participate.
  bool coalesce_queries = false;
};

/// Experiment hook observing the query protocol globally.
class QueryObserver {
 public:
  virtual ~QueryObserver() = default;
  /// A node received the query (origin included, with is_origin=true).
  virtual void on_query_visited(QueryId /*q*/, NodeId /*node*/, bool /*matched*/,
                                bool /*is_origin*/) {}
  /// `from` forwarded the query into its subcell N(level,dim) via `to`
  /// (dim = -1 for a level-0 leaf probe).
  virtual void on_query_forwarded(QueryId /*q*/, NodeId /*from*/, NodeId /*to*/,
                                  int /*level*/, int /*dim*/) {}
  /// The originator assembled the final candidate set.
  virtual void on_query_completed(QueryId /*q*/, NodeId /*origin*/,
                                  const std::vector<MatchRecord>& /*matches*/) {}
};

class SelectionNode final : public Node {
 public:
  using CompletionFn = std::function<void(const std::vector<MatchRecord>&)>;

  /// \param space attribute space; must outlive the node
  /// \param store the deployment-wide descriptor store (Grid owns it); the
  ///        node registers its own profile on start() and resolves peer
  ///        handles against it. From then on its row is the node's only
  ///        copy of its values and cell. Must outlive the node.
  /// \param values this node's attribute values (one per dimension)
  /// \param cfg the deployment's protocol config, shared by all its nodes
  ///        (the layers hold its sub-configs). Must outlive the node; a
  ///        temporary does not compile.
  /// \param bootstrap descriptors of introducer nodes (may be empty for the
  ///        first node); used to seed both gossip layers
  /// \param observer optional global measurement hook (may be nullptr)
  SelectionNode(const AttributeSpace& space, DescriptorStore& store, Point values,
                const ProtocolConfig& cfg, std::vector<PeerDescriptor> bootstrap,
                Rng rng, QueryObserver* observer = nullptr);
  SelectionNode(const AttributeSpace&, DescriptorStore&, Point, ProtocolConfig&&,
                std::vector<PeerDescriptor>, Rng, QueryObserver* = nullptr) = delete;

  // -- resource-owner API -------------------------------------------------

  /// This node's values and level-0 cell, materialized from its store row
  /// (before start(): from the values it will join with).
  Point values() const;
  CellCoord coord() const;

  /// Updates this node's (routed) attribute values. The node re-places
  /// itself in the cell grid and rebuilds its links; the new profile
  /// propagates through gossip ("no registry node must be updated").
  void set_values(Point values);

  /// Dynamic attributes checked locally by queries with dynamic filters
  /// (paper §4.2 footnote 1); never routed on.
  void set_dynamic_values(AttrValues v) { dynamic_values_ = std::move(v); }
  const AttrValues& dynamic_values() const { return dynamic_values_; }

  // -- user/query API -----------------------------------------------------

  /// Issues a query at this node ("a query can be issued at any node").
  /// `done` fires at completion with the collected candidate set; under the
  /// drop failure mode a query whose branches died may never complete.
  QueryId submit(const RangeQuery& q, std::uint32_t sigma = kNoSigma,
                 CompletionFn done = nullptr);

  // -- introspection (tests, oracle bootstrap, experiments) ----------------

  RoutingTable& routing() { return *rt_; }
  const RoutingTable& routing() const { return *rt_; }
  const Cyclon& cyclon() const { return *cyclon_; }
  const Vicinity& vicinity() const { return *vicinity_; }
  PeerDescriptor descriptor() const;
  /// In-flight query states, open shared traversals included.
  std::size_t active_queries() const { return active_.size(); }
  /// Open shared traversals.
  std::size_t shared_branches() const { return shared_.size(); }

  /// The object plus the heap it owns: the join state (gone once started),
  /// the routing table and gossip layers, the result cache, and the query
  /// bookkeeping: one entry per in-flight or completed query, with what an
  /// in-flight state holds (its query ranges, candidate set, outstanding
  /// branches and failed peers) and the riders of each open shared
  /// traversal. A completion callback's captures are not counted.
  std::size_t memory_bytes() const;

  // -- runtime Node -------------------------------------------------------

  void start() override;
  void on_message(NodeId from, const Message& m) override;

 private:
  struct Outstanding {
    int level = 0;
    int dim = -1;  // -1: level-0 probe (no alternate retry possible)
    SimTime last_heard = 0;  // refreshed by keepalives/replies
    /// Monotonic dispatch sequence number. Timeout timers capture it so a
    /// timer armed for an earlier dispatch to the same peer (possible when
    /// concurrent queries retry through shared alternates) can recognize
    /// itself as stale instead of failing the newer dispatch.
    std::uint64_t seq = 0;
  };

  struct QueryState {
    QueryMsg msg;  // local mutable copy: level and dims_mask evolve
    Region region;
    NodeId parent = kInvalidNode;
    bool is_origin = false;
    /// True while every delegated branch so far resolved exhaustively (no
    /// failed branch, every child reply complete; a linkless subcell does
    /// not count). Decides ReplyMsg::complete, i.e. whether ancestors may
    /// cache our fragment.
    bool subtree_complete = true;
    /// True while this query's current branch rides a shared traversal;
    /// the state machine must not resume until the traversal fans out.
    bool shared_wait = false;
    /// This state is a shared traversal's root (see share()): its one
    /// branch is its whole DFS, and finish() fans its records out to the
    /// riders in shared_ instead of replying.
    bool shared_root = false;
    CompletionFn done;
    // The candidate set, strictly ascending by NodeId: finish() publishes it
    // as is (replies and the final candidate set go over the wire), and each
    // incoming run joins it through one linear merge_records().
    std::vector<MatchRecord> matching;
    FlatMap<NodeId, Outstanding> waiting;
    std::vector<NodeId> failed;
  };

  /// A local branch waiting on a shared traversal.
  struct SharedRider {
    QueryId qid = 0;
    FragmentKey key;  // the rider's own fragment (cache insert + filter)
  };

  /// What the node joins with. start() moves the values into the store row
  /// and seeds the layers from the bootstrap list, then releases both.
  struct Joining {
    Point values;
    std::vector<PeerDescriptor> bootstrap;
  };

  const AttributeSpace& space() const { return cells_.space(); }
  /// The node's own row in the store. Precondition: started.
  const AttrValue* own_values() const { return store_.values_ptr(id()); }
  const CellIndex* own_cell() const { return store_.coord_ptr(id()); }

  bool matches_self(const RangeQuery& q) const;
  bool fits_space(const Message& m) const;
  void handle_query(NodeId from, const QueryMsg& qm, bool is_origin,
                    CompletionFn done);
  void handle_reply(NodeId from, const ReplyMsg& r);
  void handle_progress(NodeId from, const ProgressMsg& p);
  void keepalive_tick(QueryId qid);
  void continue_query(QueryState& st);
  void dispatch(QueryState& st, NodeId to, Outstanding slot);
  void on_timeout(QueryId qid, NodeId to, std::uint64_t seq);
  void finish(QueryState& st);
  void share(QueryState& st, int level, int k, const Region& subcell, NodeId to);
  void resume(QueryState& st);
  void gossip_tick();
  /// Offers the table every entry of both gossip views (the gossip tick).
  void refresh_routing();
  /// After a gossip frame: offers the table the entries of `view` (the
  /// layer that handled the frame) named in `received`. An unchanged view
  /// entry was offered before, so this equals a full refresh unless the
  /// routing epoch moved since the last one — then it is a full refresh.
  void refresh_routing(const View& view, const std::vector<PeerDescriptor>& received);
  /// Changes whenever the table could rank an already-offered entry
  /// differently: it lost an entry, or a peer's stored cell moved.
  std::uint32_t routing_epoch() const { return rt_->losses() + store_.moves(); }

  DescriptorStore& store_;
  Cells cells_;
  const ProtocolConfig& cfg_;
  std::unique_ptr<Joining> joining_;  // null once started
  AttrValues dynamic_values_;
  Rng rng_;
  QueryObserver* observer_;

  // Created in start(): they need the NodeId the network assigns on attach.
  std::unique_ptr<RoutingTable> rt_;
  std::unique_ptr<Cyclon> cyclon_;
  std::unique_ptr<Vicinity> vicinity_;

  std::unordered_map<QueryId, QueryState> active_;
  std::unordered_set<QueryId> completed_;
  std::uint64_t next_dispatch_seq_ = 0;

  ResultCache cache_;
  // Riders of the open shared traversals, by synthetic QueryId (the
  // traversal itself is the root QueryState under that id), opener first.
  // Flat map: attach scans for a covering key in ascending id order.
  FlatMap<QueryId, std::vector<SharedRider>> shared_;

  // The 32-bit fields come last, so together they leave no padding.
  std::uint32_t next_query_seq_ = 0;
  // routing_epoch() at the last full refresh. start() and set_values()
  // leave it stale: a new table has not seen the views.
  std::uint32_t routing_synced_ = 0;
  // Interned in start() (the Metrics registry belongs to the runtime we
  // attach to): hot-path increments skip the string-keyed lookup.
  Metrics::Counter m_gossip_cycles_ = 0;
  Metrics::Counter m_query_timeouts_ = 0;
  Metrics::Counter m_query_retries_ = 0;
  Metrics::Counter m_cache_hits_ = 0;
  Metrics::Counter m_cache_misses_ = 0;
  Metrics::Counter m_cache_inserts_ = 0;
  Metrics::Counter m_cache_evictions_ = 0;
  Metrics::Counter m_cache_stale_ = 0;
  Metrics::Counter m_coalesce_attach_ = 0;
  Metrics::Counter m_coalesce_dispatch_ = 0;
  Metrics::Counter m_decode_fail_ = 0;
};

}  // namespace ares
