#include "core/selection_node.h"

#include <algorithm>
#include <cassert>

namespace ares {

namespace {

/// Per-dimension union hull of two queries' routed ranges; an absent bound
/// is unconstrained and absorbs the other side's bound. The hull may cover
/// more than the set-union of the two regions — harmless, since each rider
/// filters the shared traversal's records down to its own ranges.
RangeQuery union_ranges(const RangeQuery& a, const RangeQuery& b) {
  std::vector<AttrRange> out;
  out.reserve(static_cast<std::size_t>(a.dimensions()));
  for (int d = 0; d < a.dimensions(); ++d) {
    const AttrRange& ra = a.range(d);
    const AttrRange& rb = b.range(d);
    AttrRange u;
    if (ra.lo && rb.lo) u.lo = std::min(*ra.lo, *rb.lo);
    if (ra.hi && rb.hi) u.hi = std::max(*ra.hi, *rb.hi);
    out.push_back(u);
  }
  return RangeQuery(std::move(out));
}

/// Binary search of an ascending-id candidate set.
bool holds(const std::vector<MatchRecord>& matching, NodeId id) {
  auto below = [](const MatchRecord& m, NodeId key) { return m.id < key; };
  auto it = std::lower_bound(matching.begin(), matching.end(), id, below);
  return it != matching.end() && it->id == id;
}

}  // namespace

SelectionNode::SelectionNode(const AttributeSpace& space, DescriptorStore& store,
                             Point values, ProtocolConfig cfg,
                             std::vector<PeerDescriptor> bootstrap, Rng rng,
                             QueryObserver* observer)
    : space_(space),
      store_(store),
      cells_(space),
      values_(std::move(values)),
      coord_(space.coord_of(values_)),
      cfg_(cfg),
      bootstrap_(std::move(bootstrap)),
      rng_(rng),
      observer_(observer),
      cache_(cfg.result_cache_capacity, cfg.result_cache_horizon) {
  assert(static_cast<int>(values_.size()) == space.dimensions());
}

PeerDescriptor SelectionNode::descriptor() const {
  return PeerDescriptor{id(), values_, coord_, 0};
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
                  bootstrap_.capacity() * sizeof(PeerDescriptor) +
                  table_bytes(active_) + table_bytes(completed_);
  n += shared_.size() * sizeof(decltype(shared_)::value_type);
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

  // Register our own profile before any layer hands out handles to it.
  store_.put(id(), values_);
  rt_ = std::make_unique<RoutingTable>(cells_, coord_, id(), cfg_.routing, store_);

  auto send_fn = [this](NodeId to, MessagePtr m) { send(to, std::move(m)); };
  cyclon_ = std::make_unique<Cyclon>(id(), store_, cfg_.cyclon, rng_, send_fn);
  vicinity_ = std::make_unique<Vicinity>(id(), coord_, cells_, store_, cfg_.vicinity,
                                         rng_, send_fn);

  // The introducers live on only as seeded links; the list's storage is
  // released when this scope ends.
  std::vector<PeerDescriptor> bootstrap;
  bootstrap.swap(bootstrap_);
  cyclon_->seed(bootstrap);
  vicinity_->seed(bootstrap, cyclon_->view());
  for (const auto& c : bootstrap) rt_->offer(c);

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
  if (cache_.enabled()) {
    cache_.age_tick();
    meter_cache();
  }
  after(cfg_.gossip_period, [this] { gossip_tick(); });
}

/// Flushes the deltas of the cache's internal stats into per-node Metrics
/// counters, so experiments aggregate cache behavior like any other metric.
void SelectionNode::meter_cache() {
  const ResultCache::Stats& s = cache_.stats();
  metrics().inc(id(), m_cache_hits_, s.hits - cache_metered_.hits);
  metrics().inc(id(), m_cache_misses_, s.misses - cache_metered_.misses);
  metrics().inc(id(), m_cache_inserts_, s.insertions - cache_metered_.insertions);
  metrics().inc(id(), m_cache_evictions_, s.evictions - cache_metered_.evictions);
  metrics().inc(id(), m_cache_stale_, s.stale_drops - cache_metered_.stale_drops);
  cache_metered_ = s;
}

void SelectionNode::refresh_routing() {
  for (const CompactPeer c : cyclon_->view().entries()) rt_->offer(c);
  for (const CompactPeer c : vicinity_->view().entries()) rt_->offer(c);
}

void SelectionNode::set_values(Point values) {
  assert(static_cast<int>(values.size()) == space_.dimensions());
  values_ = std::move(values);
  coord_ = space_.coord_of(values_);
  if (rt_ == nullptr) return;  // not started yet
  store_.put(id(), values_);  // authoritative profile update
  // Re-place ourselves: every link classifies differently now.
  std::vector<CompactPeer> known;
  for (const CompactPeer e : rt_->zero()) known.push_back(e);
  for (int l = 1; l <= rt_->levels(); ++l)
    for (int k = 0; k < rt_->dims(); ++k)
      for (const CompactPeer e : rt_->slot(l, k)) known.push_back(e);
  rt_ = std::make_unique<RoutingTable>(cells_, coord_, id(), cfg_.routing, store_);
  for (const CompactPeer e : known) rt_->offer(e);
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
  vicinity_ = std::make_unique<Vicinity>(id(), coord_, cells_, store_, cfg_.vicinity,
                                         rng_, send_fn);
  vicinity_->seed(vicinity_entries, cyclon_->view());
}

// ---- query protocol -----------------------------------------------------

bool SelectionNode::matches_self(const RangeQuery& q) const {
  return q.matches(values_) && q.matches_dynamic(dynamic_values_);
}

QueryId SelectionNode::submit(const RangeQuery& q, std::uint32_t sigma,
                              CompletionFn done) {
  assert(q.dimensions() == space_.dimensions());
  assert(sigma > 0);
  QueryId qid = (static_cast<QueryId>(id()) << 32) | next_query_seq_++;
  QueryMsg qm;
  qm.id = qid;
  qm.reply_to = id();
  qm.origin = id();
  qm.query = q;
  qm.sigma = sigma;
  qm.level = space_.max_level();
  qm.dims_mask = all_dims_mask(space_.dimensions());
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
  const auto d = static_cast<std::size_t>(space_.dimensions());
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
      return dims == d && q.level >= -1 && q.level <= space_.max_level();
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
  if (cyclon_ != nullptr && cyclon_->handle(from, m)) {
    refresh_routing();
    return;
  }
  if (vicinity_ != nullptr && vicinity_->handle(from, m, cyclon_->view())) {
    refresh_routing();
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
  auto sit = shared_.find(p.id);
  if (sit != shared_.end()) {
    if (sit->second.dispatched && sit->second.to == from)
      sit->second.last_heard = now();
    return;
  }
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
  st.region = qm.query.to_region(space_);
  st.parent = qm.reply_to;
  st.is_origin = is_origin;
  st.done = std::move(done);
  if (matched) st.matching.push_back(MatchRecord{id(), values_});

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
  const int d = space_.dimensions();

  const bool pure = !q.query.has_dynamic_filters();
  while (q.level > 0) {
    // Ascending dimension scan: required for the exactly-once invariant
    // (see the correctness sketch in the header).
    for (int k = 0; k < d; ++k) {
      const std::uint32_t bit = std::uint32_t{1} << k;
      if ((q.dims_mask & bit) == 0) continue;
      const Region subcell = cells_.neighbor_region(coord_, q.level, k);
      if (!st.region.intersects(subcell)) continue;
      if (cache_.enabled() && pure) {
        if (const ResultCache::Entry* e =
                cache_.lookup(make_fragment_key(space_, subcell, q.query))) {
          // A fresh complete fragment with exactly this (subcell, clamped
          // ranges) identity: the whole branch resolves locally.
          metrics().observe("query.cache_hit_age", static_cast<double>(e->age));
          merge_records(st.matching, e->records);
          meter_cache();
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
        meter_cache();
      }
      if (cfg_.coalesce_queries && pure && q.sigma == kNoSigma &&
          try_shared(st, q.level, k, subcell)) {
        q.dims_mask &= ~bit;
        return;  // depth-first: the shared traversal is our one branch
      }
      const CompactPeer* n =
          cfg_.query_aware_forwarding
              ? rt_->best_for_region(q.level, k, st.failed, st.region)
              : rt_->alternate(q.level, k, st.failed);
      if (n == nullptr) continue;  // empty subcell (or no live link known)
      q.dims_mask &= ~bit;
      dispatch(st, n->id, Outstanding{q.level, k});
      return;  // depth-first: one branch outstanding at a time
    }
    --q.level;
    q.dims_mask = all_dims_mask(d);
  }

  if (q.level == 0) {
    // Probe every matching cohabitant of our level-0 cell not yet known to
    // match (Fig. 5, forward lines 10-17).
    for (const CompactPeer n : rt_->zero()) {
      if (!q.query.matches(store_.point_of(n.id))) continue;
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
/// (Fig. 5 receive_reply lines 4-13, shared by replies, timeouts, and
/// shared-traversal fan-out.)
void SelectionNode::resume(QueryState& st) {
  if (!st.waiting.empty() || st.shared_wait) return;
  if (st.matching.size() < st.msg.sigma && st.msg.level >= 0) {
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
  if (shared_.contains(r.id)) {
    // Answer to a shared traversal this node dispatched: fan out to riders.
    finish_shared(r.id, r.matching, r.complete);
    return;
  }
  auto it = active_.find(r.id);
  if (it == active_.end()) return;  // late reply after timeout/finish
  QueryState& st = it->second;
  auto w = st.waiting.find(from);
  if (w != st.waiting.end()) {
    st.subtree_complete = st.subtree_complete && r.complete;
    if (cache_.enabled() && r.complete && w->second.dim >= 0 &&
        !st.msg.query.has_dynamic_filters()) {
      // The child exhausted the fragment we delegated: remember it, so the
      // next query forwarding into this subcell with equivalent clamped
      // ranges resolves without messaging.
      const Region subcell =
          cells_.neighbor_region(coord_, w->second.level, w->second.dim);
      cache_.insert(make_fragment_key(space_, subcell, st.msg.query), r.matching);
      meter_cache();
    }
    st.waiting.erase(w);
  }
  merge_records(st.matching, r.matching);
  resume(st);
}

void SelectionNode::finish(QueryState& st) {
  const QueryId qid = st.msg.id;
  std::vector<MatchRecord> matches = std::move(st.matching);

  if (st.is_origin) {
    metrics().observe("query.result_size", static_cast<double>(matches.size()));
    if (observer_ != nullptr) observer_->on_query_completed(qid, id(), matches);
    if (st.done) st.done(matches);
  } else {
    auto r = std::make_unique<ReplyMsg>();
    r->id = qid;
    r->matching = std::move(matches);
    // Complete = the DFS wound all the way down (no sigma cutoff left
    // levels unexplored), no branch failed, and every child subtree was
    // itself complete. Subcells with no known link share the protocol's
    // convergence assumption (see PROTOCOL.md: the receiver computes the
    // identical emptiness verdict), so they do not spoil completeness;
    // wrong emptiness verdicts are a churn phenomenon, bounded by the
    // cache's age horizon like any other staleness.
    r->complete = st.msg.level == -1 && st.failed.empty() && st.subtree_complete;
    send(st.parent, std::move(r));
  }
  completed_.insert(qid);
  active_.erase(qid);  // invalidates st; must be last
}

// ---- shared traversals (query coalescing) -------------------------------

bool SelectionNode::try_shared(QueryState& st, int level, int k,
                               const Region& subcell) {
  const FragmentKey key = make_fragment_key(space_, subcell, st.msg.query);
  for (auto& [sqid, sb] : shared_) {
    if (sb.level != level || sb.dim != k) continue;
    if (!sb.dispatched) {
      // Still collecting: widen the union probe to absorb this rider.
      sb.probe = union_ranges(sb.probe, st.msg.query);
      sb.union_key = make_fragment_key(space_, subcell, sb.probe);
      sb.riders.push_back(SharedRider{st.msg.id, key});
      st.shared_wait = true;
      metrics().inc(id(), m_coalesce_attach_);
      return true;
    }
    if (fragment_covers(sb.union_key, key)) {
      // Already in flight, but the dispatched union covers this rider's
      // fragment entirely: share the answer.
      sb.riders.push_back(SharedRider{st.msg.id, key});
      st.shared_wait = true;
      metrics().inc(id(), m_coalesce_attach_);
      return true;
    }
  }
  // No joinable traversal: open one with this query as the first rider.
  const QueryId sqid = (static_cast<QueryId>(id()) << 32) | next_query_seq_++;
  SharedBranch sb;
  sb.level = level;
  sb.dim = k;
  sb.probe = st.msg.query;
  sb.union_key = key;
  sb.riders.push_back(SharedRider{st.msg.id, key});
  st.shared_wait = true;
  shared_.emplace(sqid, std::move(sb));
  if (cfg_.coalesce_window > 0) {
    after(cfg_.coalesce_window, [this, sqid] { dispatch_shared(sqid); });
  } else {
    dispatch_shared(sqid);
  }
  return true;
}

void SelectionNode::dispatch_shared(QueryId sqid) {
  auto it = shared_.find(sqid);
  if (it == shared_.end() || it->second.dispatched) return;
  SharedBranch& sb = it->second;
  const CompactPeer* n = rt_->alternate(sb.level, sb.dim, sb.failed);
  if (n == nullptr) {
    // No live link into the subcell (or retries exhausted every candidate):
    // resolve the traversal empty and incomplete. Deferred one event so no
    // rider resumes beneath its own continue_query stack frame.
    after(0, [this, sqid] { finish_shared(sqid, {}, /*complete=*/false); });
    return;
  }
  sb.dispatched = true;
  sb.to = n->id;
  sb.seq = ++next_dispatch_seq_;
  sb.last_heard = now();
  if (!sb.failed.empty()) metrics().inc(id(), m_query_retries_);
  metrics().inc(id(), m_coalesce_dispatch_);
  auto m = std::make_unique<QueryMsg>();
  m->id = sqid;
  m->reply_to = id();
  m->origin = id();
  m->query = sb.probe;
  m->sigma = kNoSigma;
  m->level = sb.level;
  // Confinement mask: clear dimensions 0..dim. The receiver Y lies in
  // N(level,dim)(this); its cell minus its own subcells along the cleared
  // dimensions is exactly N(level,dim)(this) (the partition argument in the
  // header), so the union traversal covers precisely probe ∩ subcell no
  // matter which masks the riders arrived with.
  m->dims_mask = all_dims_mask(space_.dimensions()) &
                 ~((std::uint32_t{1} << (sb.dim + 1)) - 1);
  if (observer_ != nullptr)
    observer_->on_query_forwarded(sqid, id(), sb.to, sb.level, sb.dim);
  if (cfg_.query_timeout > 0) {
    const NodeId to = sb.to;
    const std::uint64_t seq = sb.seq;
    after(cfg_.query_timeout,
          [this, sqid, to, seq] { on_shared_timeout(sqid, to, seq); });
  }
  send(sb.to, std::move(m));
}

void SelectionNode::finish_shared(QueryId sqid,
                                  const std::vector<MatchRecord>& records,
                                  bool complete) {
  auto it = shared_.find(sqid);
  if (it == shared_.end()) return;
  // Detach before fanning out: resumed riders may open new shared branches
  // (mutating shared_) or finish (mutating active_) while we iterate.
  SharedBranch sb = std::move(it->second);
  shared_.erase(sqid);
  for (const SharedRider& rider : sb.riders) {
    auto ait = active_.find(rider.qid);
    if (ait == active_.end()) continue;
    QueryState& st = ait->second;
    st.shared_wait = false;
    st.subtree_complete = st.subtree_complete && complete;
    std::vector<MatchRecord> own;
    own.reserve(records.size());
    for (const MatchRecord& m : records)
      if (st.msg.query.matches(m.values)) own.push_back(m);
    merge_records(st.matching, own);
    if (cache_.enabled() && complete) {
      // Riders carry no dynamic filters (coalescing eligibility), so the
      // filtered records are exactly the rider's fragment. The cache keeps
      // it for many queries: drop the slack the filter left first.
      own.shrink_to_fit();
      cache_.insert(rider.key, std::move(own));
      meter_cache();
    }
    resume(st);
  }
}

void SelectionNode::on_shared_timeout(QueryId sqid, NodeId to,
                                      std::uint64_t seq) {
  auto it = shared_.find(sqid);
  if (it == shared_.end()) return;  // already answered
  SharedBranch& sb = it->second;
  if (!sb.dispatched || sb.to != to || sb.seq != seq) return;  // stale timer
  const SimTime deadline = sb.last_heard + cfg_.query_timeout;
  if (now() < deadline) {
    after(deadline - now(),
          [this, sqid, to, seq] { on_shared_timeout(sqid, to, seq); });
    return;
  }
  sb.failed.push_back(to);
  metrics().inc(id(), m_query_timeouts_);
  rt_->remove(to);
  if (cyclon_ != nullptr) cyclon_->remove(to);
  if (vicinity_ != nullptr) vicinity_->remove(to);
  sb.dispatched = false;
  sb.to = kInvalidNode;
  if (cfg_.retry_alternates) {
    dispatch_shared(sqid);  // resolves empty+incomplete if no candidate left
  } else {
    finish_shared(sqid, {}, /*complete=*/false);
  }
}

}  // namespace ares
