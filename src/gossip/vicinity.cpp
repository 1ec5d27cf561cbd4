#include "gossip/vicinity.h"

#include <algorithm>

namespace ares {

namespace {

/// A staged candidate: key = (id << 32) | age, plus the staging position.
/// The position is the dedupe tie-break: sorting by (key, idx) with
/// std::sort yields exactly the order std::stable_sort by (id, age) would —
/// without the temporary merge buffer stable_sort heap-allocates on every
/// call.
struct Staged {
  std::uint64_t key;
  std::uint32_t idx;
  bool operator<(const Staged& o) const {
    return key != o.key ? key < o.key : idx < o.idx;
  }
};

/// Sort entries carry their keys inline: comparators touch only the entry
/// itself. hi = (level << 5) | (dim + 1), lo = (age << 32) | id: one
/// (hi, lo) comparison is the old (level, dim, age, id) lexicographic order.
struct Ranked {
  std::uint64_t hi;
  std::uint64_t lo;
  CompactPeer p;
  bool operator<(const Ranked& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
};

std::uint64_t rank_hi(int level, int dim) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level)) << 5) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(dim + 1));
}

/// The staged (id, age) key halves swapped into (age << 32) | id: youngest
/// first within a rank, id as the final tie-break.
std::uint64_t rank_lo(const Staged& s) { return (s.key << 32) | (s.key >> 32); }

CompactPeer peer_of(const Staged& s) {
  return {static_cast<NodeId>(s.key >> 32), static_cast<std::uint32_t>(s.key)};
}

void stage(std::vector<Staged>& staged, CompactPeer p) {
  staged.push_back({(static_cast<std::uint64_t>(p.id) << 32) | p.age,
                    static_cast<std::uint32_t>(staged.size())});
}

}  // namespace

struct Vicinity::Scratch {
  std::vector<Staged> staged;
  std::vector<Ranked> ranked;
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  std::vector<CompactPeer> subset;  // random-subset fallback
  std::vector<CompactPeer> kept;    // merge() winners, swapped into view_
};

Vicinity::Vicinity(NodeId self, CellCoord self_coord, const Cells& cells,
                   DescriptorStore& store, VicinityConfig cfg, Rng& rng,
                   SendFn send)
    : self_(self), self_coord_(self_coord), cells_(cells), store_(store),
      cfg_(cfg), rng_(rng), send_(std::move(send)), view_(cfg.view_size) {}

void Vicinity::tick(const View& cyclon_view) {
  view_.age_all();
  view_.drop_older_than(cfg_.max_age);

  // Choose a partner: alternate exploitation (oldest vicinity entry) and
  // exploration (random CYCLON entry).
  CompactPeer target;
  if (!explore_next_ && !view_.empty()) {
    // Exploitation: like CYCLON, drop the (oldest) partner from the view
    // before the exchange — a live partner re-enters via its reply (with a
    // fresh age), a dead one silently washes out.
    target = view_.take_oldest();
  } else if (!cyclon_view.empty()) {
    target = cyclon_view.entries()[rng_.index(cyclon_view.size())];
  } else if (!view_.empty()) {
    target = view_.take_oldest();
  } else {
    return;
  }
  explore_next_ = !explore_next_;

  auto msg = std::make_unique<VicinityExchangeMsg>();
  msg->is_reply = false;
  subset_into(target.id, cyclon_view, cfg_.exchange_len, msg->entries);
  send_(target.id, std::move(msg));
}

bool Vicinity::handle(NodeId from, const Message& m, const View& cyclon_view) {
  const auto* ex = dynamic_cast<const VicinityExchangeMsg*>(&m);
  if (ex == nullptr) return false;

  if (!ex->is_reply) {
    auto reply = std::make_unique<VicinityExchangeMsg>();
    reply->is_reply = true;
    // Reply with what is most useful to the requester. We know the
    // requester's profile when its descriptor was in the request (Vicinity
    // always includes self); otherwise fall back to a random subset.
    const PeerDescriptor* requester = nullptr;
    for (const auto& e : ex->entries)
      if (e.id == from) requester = &e;
    if (requester != nullptr) {
      store_.put_if_absent(requester->id, requester->values);
      subset_into(requester->id, cyclon_view, cfg_.exchange_len, reply->entries);
    } else {
      std::vector<CompactPeer>& subset = thread_scratch<Scratch>().subset;
      view_.random_subset_into(rng_, cfg_.exchange_len, subset);
      reply->entries.clear();
      reply->entries.reserve(subset.size());
      for (CompactPeer p : subset) reply->entries.push_back(materialize(store_, p));
    }
    send_(from, std::move(reply));
  }
  merge(ex->entries, cyclon_view);
  return true;
}

void Vicinity::merge(const std::vector<PeerDescriptor>& received,
                     const View& cyclon_view) {
  Scratch& s = thread_scratch<Scratch>();
  s.staged.clear();
  for (const CompactPeer p : view_.entries()) stage(s.staged, p);
  for (const auto& d : received) {
    store_.put_if_absent(d.id, d.values);
    stage(s.staged, {d.id, d.age});
  }
  // Exploit the CYCLON stream as an extra candidate source (two-layer
  // coupling from [9]): random entries occasionally fill empty slots.
  for (const CompactPeer p : cyclon_view.entries()) stage(s.staged, p);
  // Winners land in s.kept before adopt() swaps it with the view; the
  // displaced entries stay in s.kept as warm capacity for the next merge.
  select_staged_into(s, cfg_.view_size, s.kept);
  view_.adopt(s.kept);
}

void Vicinity::dedupe_staged(Scratch& s, NodeId exclude) const {
  std::vector<Staged>& staged = s.staged;
  staged.erase(std::remove_if(staged.begin(), staged.end(),
                              [&](const Staged& e) {
                                return peer_of(e).id == exclude ||
                                       peer_of(e).age > cfg_.max_age;
                              }),
               staged.end());
  // key = (id << 32) | age sorts youngest-first per id; the staging index
  // breaks (id, age) ties so the first staged entry wins, matching the
  // old map's insertion-order tie-break. The explicit key keeps the sort
  // stable without std::stable_sort, whose temporary merge buffer would
  // heap-allocate on every exchange.
  std::sort(staged.begin(), staged.end());
  staged.erase(std::unique(staged.begin(), staged.end(),
                           [](const Staged& a, const Staged& b) {
                             return peer_of(a).id == peer_of(b).id;
                           }),
               staged.end());
}

std::vector<PeerDescriptor> Vicinity::select_best(
    std::vector<PeerDescriptor> candidates, std::size_t cap) const {
  Scratch& s = thread_scratch<Scratch>();
  s.staged.clear();
  for (const auto& c : candidates) {
    store_.put_if_absent(c.id, c.values);
    stage(s.staged, {c.id, c.age});
  }
  std::vector<CompactPeer> kept;
  select_staged_into(s, cap, kept);
  std::vector<PeerDescriptor> out;
  out.reserve(kept.size());
  for (CompactPeer p : kept) out.push_back(materialize(store_, p));
  return out;
}

void Vicinity::select_staged_into(Scratch& s, std::size_t cap,
                                  std::vector<CompactPeer>& out) const {
  // Dedupe by id, keeping the youngest entry; drop self and expired.
  dedupe_staged(s, self_);

  // Group by routing slot relative to self. Key order: level asc, dim asc —
  // level-0 cohabitants first (neighborsZero must be complete), then the
  // near subcells. Groups become contiguous runs of the sorted flat array.
  std::vector<Ranked>& ranked = s.ranked;
  ranked.clear();
  for (const Staged& e : s.staged) {
    const CompactPeer p = peer_of(e);
    auto slot = cells_.classify(self_coord_.data(), store_.coord_ptr(p.id));
    if (!slot) continue;  // coords outside the space
    ranked.push_back({rank_hi(slot->level, slot->dim), rank_lo(e), p});
  }
  // (hi, lo) = the old (level, dim, age, id) lexicographic order.
  std::sort(ranked.begin(), ranked.end());
  s.groups.clear();
  for (std::size_t i = 0; i < ranked.size();) {
    std::size_t j = i + 1;
    while (j < ranked.size() && ranked[j].hi == ranked[i].hi) ++j;
    s.groups.emplace_back(i, j);
    i = j;
  }

  // Round-robin across groups: first pass gives every slot one (young)
  // representative; later passes add backups until capacity.
  out.clear();
  out.reserve(std::min(cap, ranked.size()));
  for (std::size_t round = 0; out.size() < cap; ++round) {
    bool any = false;
    for (const auto& [begin, end] : s.groups) {
      if (begin + round < end && out.size() < cap) {
        out.push_back(ranked[begin + round].p);
        any = true;
      }
    }
    if (!any) break;
  }
}

std::vector<PeerDescriptor> Vicinity::subset_for(const PeerDescriptor& target,
                                                 const View& cyclon_view,
                                                 std::size_t k) const {
  store_.put_if_absent(target.id, target.values);
  std::vector<PeerDescriptor> all;
  subset_into(target.id, cyclon_view, k, all);
  return all;
}

void Vicinity::subset_into(NodeId target, const View& cyclon_view, std::size_t k,
                           std::vector<PeerDescriptor>& out) const {
  Scratch& s = thread_scratch<Scratch>();
  s.staged.clear();
  stage(s.staged, {self_, 0});  // always advertise ourselves
  for (const CompactPeer p : view_.entries()) stage(s.staged, p);
  for (const CompactPeer p : cyclon_view.entries()) stage(s.staged, p);
  dedupe_staged(s, target);

  // Rank by usefulness to the target: lowest common-cell level first (level
  // 0 = same zero cell = most useful), then youngest. The level is computed
  // once per candidate. Unclassifiable candidates rank last.
  const CellIndex* target_coord = store_.coord_ptr(target);
  std::vector<Ranked>& ranked = s.ranked;
  ranked.clear();
  for (const Staged& e : s.staged) {
    const CompactPeer p = peer_of(e);
    auto slot = cells_.classify(target_coord, store_.coord_ptr(p.id));
    ranked.push_back({rank_hi(slot ? slot->level : kUnrankedLevel, 0), rank_lo(e), p});
  }
  // (hi, lo) = the old (level, age, id) order (dim is constant here).
  std::sort(ranked.begin(), ranked.end());

  const bool truncated = ranked.size() > k;
  if (truncated) ranked.resize(k);
  out.clear();
  out.reserve(ranked.size());
  for (const auto& r : ranked) out.push_back(materialize(store_, r.p));
  if (truncated) {
    // Self must always be advertised (the remove-on-exploit washout relies
    // on a live partner re-entering through its reply): if truncation cut
    // it, put it back in the last slot.
    bool has_self = false;
    for (const auto& d : out) has_self = has_self || d.id == self_;
    if (!has_self && !out.empty()) out.back() = materialize(store_, {self_, 0});
  }
}

}  // namespace ares
