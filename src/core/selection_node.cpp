#include "core/selection_node.h"

#include <algorithm>
#include <cassert>

namespace ares {

namespace {

/// Binary search of an ascending-id candidate set.
bool holds(const std::vector<MatchRecord>& matching, NodeId id) {
  auto below = [](const MatchRecord& m, NodeId key) { return m.id < key; };
  auto it = std::lower_bound(matching.begin(), matching.end(), id, below);
  return it != matching.end() && it->id == id;
}

}  // namespace

SelectionNode::SelectionNode(const AttributeSpace& space, DescriptorStore& store,
                             Point values, const ProtocolConfig& cfg,
                             std::vector<PeerDescriptor> bootstrap, Rng rng,
                             QueryObserver* observer)
    : store_(store),
      cells_(space),
      cfg_(cfg),
      joining_(std::make_unique<Joining>(Joining{values, std::move(bootstrap)})),
      rng_(rng),
      observer_(observer),
      cache_(cfg.result_cache_capacity, cfg.result_cache_horizon) {
  assert(static_cast<int>(joining_->values.size()) == space.dimensions());
}

Point SelectionNode::values() const {
  return joining_ != nullptr ? joining_->values : store_.point_of(id());
}

CellCoord SelectionNode::coord() const {
  return joining_ != nullptr ? space().coord_of(joining_->values) : store_.coord_of(id());
}

PeerDescriptor SelectionNode::descriptor() const {
  return PeerDescriptor{id(), values(), 0};
}

std::size_t SelectionNode::memory_bytes() const {
  // A hash table: its bucket array (a one-bucket table keeps it inline) plus
  // one node, a next pointer and the value, per element.
  auto table_bytes = [](const auto& t) {
    using Value = typename std::remove_cvref_t<decltype(t)>::value_type;
    const std::size_t buckets = t.bucket_count() > 1 ? t.bucket_count() : 0;
    return (buckets + t.size()) * sizeof(void*) + t.size() * sizeof(Value);
  };
  std::size_t n = sizeof(*this) + dynamic_values_.capacity() * sizeof(AttrValue) +
                  table_bytes(active_) + table_bytes(completed_) +
                  cache_.memory_bytes() - sizeof(cache_);
  if (joining_ != nullptr)
    n += sizeof(Joining) + joining_->bootstrap.capacity() * sizeof(PeerDescriptor);
  for (const QueryId qid : sorted_keys(active_)) {
    const QueryState& st = active_.at(qid);
    n += st.msg.query.memory_bytes() + st.matching.capacity() * sizeof(MatchRecord) +
         st.waiting.capacity() * sizeof(decltype(st.waiting)::value_type) +
         st.failed.capacity() * sizeof(NodeId);
  }
  n += shared_.capacity() * sizeof(decltype(shared_)::value_type);
  for (const auto& [sqid, riders] : shared_)
    n += riders.capacity() * sizeof(SharedRider);
  if (rt_ != nullptr) n += rt_->memory_bytes();
  if (cyclon_ != nullptr) n += cyclon_->memory_bytes() + vicinity_->memory_bytes();
  return n;
}

void SelectionNode::start() {
  m_gossip_cycles_ = metrics().counter("gossip.cycles");
  m_query_timeouts_ = metrics().counter("query.timeouts");
  m_query_retries_ = metrics().counter("query.retries");
  m_cache_hits_ = metrics().counter("query.cache_hit");
  m_cache_misses_ = metrics().counter("query.cache_miss");
  m_cache_inserts_ = metrics().counter("query.cache_insert");
  m_cache_evictions_ = metrics().counter("query.cache_evict");
  m_cache_stale_ = metrics().counter("query.cache_stale");
  m_coalesce_attach_ = metrics().counter("query.coalesce_attach");
  m_coalesce_dispatch_ = metrics().counter("query.coalesce_dispatch");
  m_decode_fail_ = metrics().counter("wire.decode_fail");

  // Register our own profile before any layer hands out handles to it: from
  // here on the store row is the node's only copy of it. The introducers
  // live on only as seeded links; the join state is released when this
  // scope ends.
  const std::unique_ptr<Joining> joining = std::move(joining_);
  store_.put(id(), joining->values);
  rt_ = std::make_unique<RoutingTable>(cells_, id(), cfg_.routing, store_);

  auto send_fn = [this](NodeId to, MessagePtr m) { send(to, std::move(m)); };
  cyclon_ = std::make_unique<Cyclon>(id(), store_, cfg_.cyclon, rng_, send_fn);
  vicinity_ =
      std::make_unique<Vicinity>(id(), cells_, store_, cfg_.vicinity, rng_, send_fn);

  cyclon_->seed(joining->bootstrap);
  vicinity_->seed(joining->bootstrap, cyclon_->view());
  for (const auto& c : joining->bootstrap) rt_->offer(c);
  routing_synced_ = routing_epoch() - 1;  // the first refresh is a full one

  if (cfg_.gossip_enabled) {
    // Random initial phase desynchronizes cycles across nodes.
    SimTime phase = static_cast<SimTime>(
        rng_.below(static_cast<std::uint64_t>(cfg_.gossip_period) + 1));
    after(phase, [this] { gossip_tick(); });
  }
}

void SelectionNode::gossip_tick() {
  // Two gossip initiations per cycle, one per layer (§6: "each node
  // initiates exactly two gossips").
  metrics().inc(id(), m_gossip_cycles_);
  cyclon_->tick();
  vicinity_->tick(cyclon_->view());
  rt_->age_all();
  rt_->drop_older_than(cfg_.rt_max_age);
  refresh_routing();
  if (cache_.enabled()) metrics().inc(id(), m_cache_stale_, cache_.age_tick());
  after(cfg_.gossip_period, [this] { gossip_tick(); });
}

void SelectionNode::refresh_routing() {
  for (const CompactPeer c : cyclon_->view().entries()) rt_->offer(c);
  for (const CompactPeer c : vicinity_->view().entries()) rt_->offer(c);
  routing_synced_ = routing_epoch();
}

void SelectionNode::refresh_routing(const View& view,
                                    const std::vector<PeerDescriptor>& received) {
  if (routing_synced_ != routing_epoch()) {
    refresh_routing();
    return;
  }
  // A merge changes a view only by taking in received descriptors (the
  // Vicinity selection also draws on the CYCLON view, all of whose entries
  // the table has seen). Entries a merge drops stay in the table.
  for (const PeerDescriptor& d : received)
    if (const CompactPeer* c = view.find(d.id)) rt_->offer(*c);
}

void SelectionNode::set_values(Point values) {
  assert(static_cast<int>(values.size()) == space().dimensions());
  if (joining_ != nullptr) {  // not started yet
    joining_->values = values;
    return;
  }
  store_.put(id(), values);  // authoritative profile update
  // Re-place ourselves: every link classifies differently now.
  std::vector<CompactPeer> known;
  for (const CompactPeer e : rt_->zero()) known.push_back(e);
  for (int l = 1; l <= rt_->levels(); ++l)
    for (int k = 0; k < rt_->dims(); ++k)
      for (const CompactPeer e : rt_->slot(l, k)) known.push_back(e);
  rt_ = std::make_unique<RoutingTable>(cells_, id(), cfg_.routing, store_);
  for (const CompactPeer e : known) rt_->offer(e);
  routing_synced_ = routing_epoch() - 1;  // the next refresh is a full one
  // Recreate gossip layers with the new self profile; views carry over
  // (materialized through the store: seed() re-registers ids idempotently).
  auto send_fn = [this](NodeId to, MessagePtr m) { send(to, std::move(m)); };
  auto materialize_view = [this](const View& v) {
    std::vector<PeerDescriptor> out;
    out.reserve(v.size());
    for (const CompactPeer p : v.entries()) out.push_back(materialize(store_, p));
    return out;
  };
  auto cyclon_entries = materialize_view(cyclon_->view());
  auto vicinity_entries = materialize_view(vicinity_->view());
  cyclon_ = std::make_unique<Cyclon>(id(), store_, cfg_.cyclon, rng_, send_fn);
  cyclon_->seed(cyclon_entries);
  vicinity_ =
      std::make_unique<Vicinity>(id(), cells_, store_, cfg_.vicinity, rng_, send_fn);
  vicinity_->seed(vicinity_entries, cyclon_->view());
}

// ---- query protocol -----------------------------------------------------

bool SelectionNode::matches_self(const RangeQuery& q) const {
  return q.matches(own_values()) && q.matches_dynamic(dynamic_values_);
}

QueryId SelectionNode::submit(const RangeQuery& q, std::uint32_t sigma,
                              CompletionFn done) {
  assert(q.dimensions() == space().dimensions());
  assert(sigma > 0);
  QueryId qid = (static_cast<QueryId>(id()) << 32) | next_query_seq_++;
  QueryMsg qm;
  qm.id = qid;
  qm.reply_to = id();
  qm.origin = id();
  qm.query = q;
  qm.sigma = sigma;
  qm.level = space().max_level();
  qm.dims_mask = all_dims_mask(space().dimensions());
  handle_query(id(), qm, /*is_origin=*/true, std::move(done));
  return qid;
}

/// Ingress check, run before any handler: a frame can decode cleanly yet
/// not fit this node's space — a query or record of another dimensionality,
/// a level outside [-1, max(l)], reply records out of id order (the merge's
/// precondition), a descriptor whose id lies past the store's rows. The
/// handlers would index past their arrays, or grow the store, on it, so to
/// this node it is as unusable as a frame that does not parse.
bool SelectionNode::fits_space(const Message& m) const {
  const auto d = static_cast<std::size_t>(space().dimensions());
  const NodeId bound = store_.id_bound();
  auto descriptors_fit = [d, bound](const std::vector<PeerDescriptor>& entries) {
    for (const PeerDescriptor& e : entries)
      if (e.id >= bound || e.values.size() != d) return false;
    return true;
  };
  // Each kind is produced by exactly one message type (the codec registry's
  // dispatch rule), so the casts below are checked by the switch.
  switch (m.kind()) {
    case wire::Kind::kQuery: {
      const auto& q = static_cast<const QueryMsg&>(m);
      const auto dims = static_cast<std::size_t>(q.query.dimensions());
      return dims == d && q.level >= -1 && q.level <= space().max_level();
    }
    case wire::Kind::kReply: {
      const auto& matching = static_cast<const ReplyMsg&>(m).matching;
      for (const MatchRecord& r : matching)
        if (r.values.size() != d) return false;
      return ids_ascending(matching);
    }
    case wire::Kind::kCyclonRequest:
    case wire::Kind::kCyclonReply:
      return descriptors_fit(static_cast<const CyclonShuffleMsg&>(m).entries);
    case wire::Kind::kVicinityRequest:
    case wire::Kind::kVicinityReply:
      return descriptors_fit(static_cast<const VicinityExchangeMsg&>(m).entries);
    default:
      return true;
  }
}

void SelectionNode::on_message(NodeId from, const Message& m) {
  if (!fits_space(m)) {
    metrics().inc(id(), m_decode_fail_);
    return;
  }
  // handle() accepts exactly its layer's message type.
  if (cyclon_ != nullptr && cyclon_->handle(from, m)) {
    refresh_routing(cyclon_->view(), static_cast<const CyclonShuffleMsg&>(m).entries);
    return;
  }
  if (vicinity_ != nullptr && vicinity_->handle(from, m, cyclon_->view())) {
    refresh_routing(vicinity_->view(),
                    static_cast<const VicinityExchangeMsg&>(m).entries);
    return;
  }
  if (const auto* q = dynamic_cast<const QueryMsg*>(&m)) {
    handle_query(from, *q, /*is_origin=*/false, nullptr);
    return;
  }
  if (const auto* r = dynamic_cast<const ReplyMsg*>(&m)) {
    handle_reply(from, *r);
    return;
  }
  if (const auto* p = dynamic_cast<const ProgressMsg*>(&m)) {
    handle_progress(from, *p);
    return;
  }
}

void SelectionNode::handle_progress(NodeId from, const ProgressMsg& p) {
  auto it = active_.find(p.id);
  if (it == active_.end()) return;
  auto w = it->second.waiting.find(from);
  if (w == it->second.waiting.end()) return;
  w->second.last_heard = now();
}

void SelectionNode::keepalive_tick(QueryId qid) {
  auto it = active_.find(qid);
  if (it == active_.end() || it->second.is_origin) return;
  auto msg = std::make_unique<ProgressMsg>();
  msg->id = qid;
  send(it->second.parent, std::move(msg));
  after(std::max<SimTime>(1, cfg_.query_timeout / 2),
        [this, qid] { keepalive_tick(qid); });
}

void SelectionNode::handle_query(NodeId from, const QueryMsg& qm, bool is_origin,
                                 CompletionFn done) {
  const bool matched = matches_self(qm.query);
  if (observer_ != nullptr)
    observer_->on_query_visited(qm.id, id(), matched, is_origin);

  if (completed_.contains(qm.id) || active_.contains(qm.id)) {
    // Duplicate delivery (possible only with timeout-based retransmission):
    // answer idempotently with nothing new.
    auto r = std::make_unique<ReplyMsg>();
    r->id = qm.id;
    send(from, std::move(r));
    return;
  }

  auto [it, inserted] = active_.emplace(qm.id, QueryState{});
  QueryState& st = it->second;
  st.msg = qm;
  st.region = qm.query.to_region(space());
  st.parent = qm.reply_to;
  st.is_origin = is_origin;
  st.done = std::move(done);
  if (matched) st.matching.push_back(MatchRecord{id(), store_.point_of(id())});

  // Heartbeat the parent while we work on its branch (see ProgressMsg):
  // an immediate ack, then periodic keepalives until we reply.
  if (!is_origin && cfg_.query_timeout > 0) keepalive_tick(qm.id);

  if (st.matching.size() < st.msg.sigma) {
    continue_query(st);
  } else {
    finish(st);
  }
}

void SelectionNode::continue_query(QueryState& st) {
  QueryMsg& q = st.msg;
  const int d = space().dimensions();

  const bool pure = !q.query.has_dynamic_filters();
  const CellIndex* cell = own_cell();
  while (q.level > 0) {
    // Ascending dimension scan: required for the exactly-once invariant
    // (see the correctness sketch in the header).
    for (int k = 0; k < d; ++k) {
      const std::uint32_t bit = std::uint32_t{1} << k;
      if ((q.dims_mask & bit) == 0) continue;
      const Region subcell = cells_.neighbor_region(cell, q.level, k);
      if (!st.region.intersects(subcell)) continue;
      if (cache_.enabled() && pure) {
        if (const ResultCache::Entry* e =
                cache_.lookup(make_fragment_key(space(), subcell, q.query))) {
          // A fresh complete fragment with exactly this (subcell, clamped
          // ranges) identity: the whole branch resolves locally.
          metrics().inc(id(), m_cache_hits_);
          merge_records(st.matching, e->records);
          q.dims_mask &= ~bit;
          if (st.matching.size() >= q.sigma) {
            // Sigma satisfied without messaging — same early cutoff a child
            // reply would have triggered. Callers guarantee nothing is
            // outstanding when continue_query runs.
            if (st.waiting.empty() && !st.shared_wait) finish(st);
            return;
          }
          continue;  // branch done; keep scanning this level
        }
        metrics().inc(id(), m_cache_misses_);
      }
      const CompactPeer* n =
          cfg_.query_aware_forwarding
              ? rt_->best_for_region(q.level, k, st.failed, st.region)
              : rt_->alternate(q.level, k, st.failed);
      // Empty subcell (or no live link known): skipped on every path, and
      // it does not spoil completeness (see finish()).
      if (n == nullptr) continue;
      q.dims_mask &= ~bit;
      if (cfg_.coalesce_queries && pure && q.sigma == kNoSigma) {
        share(st, q.level, k, subcell, n->id);
      } else {
        dispatch(st, n->id, Outstanding{q.level, k});
      }
      return;  // depth-first: one branch outstanding at a time
    }
    --q.level;
    q.dims_mask = all_dims_mask(d);
  }

  if (q.level == 0) {
    // Probe every matching cohabitant of our level-0 cell not yet known to
    // match (Fig. 5, forward lines 10-17).
    for (const CompactPeer n : rt_->zero()) {
      if (!q.query.matches(store_.values_ptr(n.id))) continue;
      if (holds(st.matching, n.id)) continue;
      if (st.waiting.contains(n.id)) continue;
      bool failed = false;
      for (NodeId f : st.failed) failed = failed || (f == n.id);
      if (failed) continue;
      dispatch(st, n.id, Outstanding{0, -1});
    }
    // The zero phase runs once; -1 disables further forwarding exactly like
    // the paper's "q.level >= 0" guard combined with its matching-filter.
    q.level = -1;
  }

  if (st.waiting.empty() && !st.shared_wait) finish(st);
}

/// Resumes a query's state machine once nothing is outstanding: re-forward
/// while the sigma target is unmet and levels remain, reply otherwise.
/// (Fig. 5 receive_reply lines 4-13, run after replies, timeouts and
/// shared-traversal fan-outs.) A shared root never re-forwards: its one
/// branch was its whole DFS.
void SelectionNode::resume(QueryState& st) {
  if (!st.waiting.empty() || st.shared_wait) return;
  if (!st.shared_root && st.matching.size() < st.msg.sigma && st.msg.level >= 0) {
    continue_query(st);
  } else {
    finish(st);
  }
}

void SelectionNode::dispatch(QueryState& st, NodeId to, Outstanding slot) {
  auto m = std::make_unique<QueryMsg>();
  m->id = st.msg.id;
  m->reply_to = id();
  m->origin = st.msg.origin;
  m->query = st.msg.query;
  m->sigma = st.msg.sigma;
  if (slot.dim < 0 && slot.level == 0) {
    m->level = -1;  // leaf probe: answer only, never forward
    m->dims_mask = 0;
  } else {
    m->level = st.msg.level;
    m->dims_mask = st.msg.dims_mask;
  }
  if (st.shared_root) metrics().inc(id(), m_coalesce_dispatch_);
  if (observer_ != nullptr)
    observer_->on_query_forwarded(st.msg.id, id(), to, slot.level, slot.dim);
  slot.last_heard = now();
  slot.seq = ++next_dispatch_seq_;
  st.waiting.emplace(to, slot);
  if (cfg_.query_timeout > 0) {
    const QueryId qid = st.msg.id;
    const std::uint64_t seq = slot.seq;
    after(cfg_.query_timeout, [this, qid, to, seq] { on_timeout(qid, to, seq); });
  }
  send(to, std::move(m));
}

void SelectionNode::on_timeout(QueryId qid, NodeId to, std::uint64_t seq) {
  auto it = active_.find(qid);
  if (it == active_.end()) return;
  QueryState& st = it->second;
  auto w = st.waiting.find(to);
  if (w == st.waiting.end()) return;  // already answered
  // A timer only speaks for the dispatch that armed it: the same peer may
  // be dispatched to again for this query (a later level, or an alternate
  // retry under concurrent load), and a leftover timer from the earlier
  // dispatch must not fail the newer one.
  if (w->second.seq != seq) return;
  // Keepalives reset the deadline: only true silence for a full T(q)
  // declares the branch dead. Re-arm otherwise.
  const SimTime deadline = w->second.last_heard + cfg_.query_timeout;
  if (now() < deadline) {
    after(deadline - now(), [this, qid, to, seq] { on_timeout(qid, to, seq); });
    return;
  }
  Outstanding slot = w->second;
  st.waiting.erase(w);
  st.failed.push_back(to);
  metrics().inc(id(), m_query_timeouts_);
  // Treat the peer as failed: purge it from every local structure so later
  // queries do not stumble over the same dead link.
  rt_->remove(to);
  if (cyclon_ != nullptr) cyclon_->remove(to);
  if (vicinity_ != nullptr) vicinity_->remove(to);

  if (cfg_.retry_alternates && slot.dim >= 0) {
    if (const CompactPeer* alt = rt_->alternate(slot.level, slot.dim, st.failed)) {
      metrics().inc(id(), m_query_retries_);
      dispatch(st, alt->id, slot);
      return;
    }
  }
  resume(st);
}

void SelectionNode::handle_reply(NodeId from, const ReplyMsg& r) {
  auto it = active_.find(r.id);
  if (it == active_.end()) return;  // late reply after timeout/finish
  QueryState& st = it->second;
  auto w = st.waiting.find(from);
  if (w != st.waiting.end()) {
    st.subtree_complete = st.subtree_complete && r.complete;
    if (cache_.enabled() && r.complete && w->second.dim >= 0 && !st.shared_root &&
        !st.msg.query.has_dynamic_filters()) {
      // The child exhausted the fragment we delegated: remember it, so the
      // next query forwarding into this subcell with equivalent clamped
      // ranges resolves without messaging. (A shared root's riders cache
      // it under their own keys when it fans out.)
      const Region subcell =
          cells_.neighbor_region(own_cell(), w->second.level, w->second.dim);
      metrics().inc(id(), m_cache_inserts_);
      if (cache_.insert(make_fragment_key(space(), subcell, st.msg.query), r.matching))
        metrics().inc(id(), m_cache_evictions_);
    }
    st.waiting.erase(w);
  }
  merge_records(st.matching, r.matching);
  resume(st);
}

void SelectionNode::finish(QueryState& st) {
  const QueryId qid = st.msg.id;
  std::vector<MatchRecord> matches = std::move(st.matching);
  // Complete = the DFS wound all the way down (no sigma cutoff left levels
  // unexplored; a shared root's one branch is its whole DFS), no branch
  // failed, and every child subtree was itself complete. Subcells with no
  // known link share the protocol's convergence assumption (see
  // PROTOCOL.md: the receiver computes the identical emptiness verdict), so
  // they do not spoil completeness; wrong emptiness verdicts are a churn
  // phenomenon, bounded by the cache's age horizon like any other
  // staleness.
  const bool complete = (st.msg.level == -1 || st.shared_root) && st.failed.empty() &&
                        st.subtree_complete;

  if (st.shared_root) {
    // Detach before fanning out: resumed riders may open shared traversals
    // (mutating shared_) or finish (mutating active_) while we iterate. The
    // root never enters completed_: it was never a query anyone sent us.
    auto sb = shared_.find(qid);
    const std::vector<SharedRider> riders = std::move(sb->second);
    shared_.erase(sb);
    active_.erase(qid);  // invalidates st
    for (const SharedRider& rider : riders) {
      auto it = active_.find(rider.qid);
      if (it == active_.end()) continue;
      QueryState& rs = it->second;
      rs.shared_wait = false;
      rs.subtree_complete = rs.subtree_complete && complete;
      std::vector<MatchRecord> own;
      own.reserve(matches.size());
      for (const MatchRecord& m : matches)
        if (rs.msg.query.matches(m.values)) own.push_back(m);
      merge_records(rs.matching, own);
      if (cache_.enabled() && complete) {
        // Riders carry no dynamic filters (coalescing eligibility), so the
        // filtered records are exactly the rider's fragment. The cache keeps
        // it for many queries: drop the slack the filter left first.
        own.shrink_to_fit();
        metrics().inc(id(), m_cache_inserts_);
        if (cache_.insert(rider.key, std::move(own)))
          metrics().inc(id(), m_cache_evictions_);
      }
      resume(rs);
    }
    return;
  }

  if (st.is_origin) {
    if (observer_ != nullptr) observer_->on_query_completed(qid, id(), matches);
    if (st.done) st.done(matches);
  } else {
    auto r = std::make_unique<ReplyMsg>();
    r->id = qid;
    r->matching = std::move(matches);
    r->complete = complete;
    send(st.parent, std::move(r));
  }
  completed_.insert(qid);
  active_.erase(qid);  // invalidates st; must be last
}

// ---- shared traversals (query coalescing) -------------------------------

/// Sends the branch of `st` into subcell N(level,k) as a shared traversal.
/// It rides the first open traversal (ascending synthetic id) whose key
/// covers its own fragment. Otherwise it opens one: a root QueryState under
/// a fresh synthetic id, originated here and owed to no parent, with the
/// branch's own query, dispatched through `to`. From then on dispatch(),
/// handle_progress(), on_timeout() and handle_reply() serve the root as
/// they serve any query, and finish() fans its records out.
void SelectionNode::share(QueryState& st, int level, int k, const Region& subcell,
                          NodeId to) {
  FragmentKey key = make_fragment_key(space(), subcell, st.msg.query);
  st.shared_wait = true;
  for (auto& [sqid, riders] : shared_) {
    // The opener stays first: its key is what the traversal answers.
    if (!fragment_covers(riders.front().key, key)) continue;
    riders.push_back(SharedRider{st.msg.id, std::move(key)});
    metrics().inc(id(), m_coalesce_attach_);
    return;
  }
  const QueryId sqid = (static_cast<QueryId>(id()) << 32) | next_query_seq_++;
  QueryState& root = active_[sqid];
  root.shared_root = true;
  root.msg.id = sqid;
  root.msg.origin = id();
  root.msg.query = st.msg.query;
  root.msg.level = level;
  // Confinement mask: clear dimensions 0..k. The receiver Y lies in
  // N(level,k)(this); its cell minus its own subcells along the cleared
  // dimensions is exactly N(level,k)(this) (the partition argument in the
  // header), so the traversal covers precisely query ∩ subcell, whatever
  // masks the riders arrived with.
  root.msg.dims_mask =
      all_dims_mask(space().dimensions()) & ~((std::uint32_t{1} << (k + 1)) - 1);
  shared_[sqid].push_back(SharedRider{st.msg.id, std::move(key)});
  dispatch(root, to, Outstanding{level, k});
}

}  // namespace ares
