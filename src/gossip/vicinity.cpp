#include "gossip/vicinity.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace ares {

namespace {

/// (age << 32) | id: one integer comparison is the (age, id) order that
/// ranks candidates inside a group — youngest first, id breaking ties.
std::uint64_t age_id_key(CompactPeer p) {
  return (static_cast<std::uint64_t>(p.age) << 32) | p.id;
}

CompactPeer peer_of(std::uint64_t key) {
  return {static_cast<NodeId>(key), static_cast<std::uint32_t>(key >> 32)};
}

/// Group of a candidate that cannot be classified against the selecting
/// node: merge() drops it.
constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

}  // namespace

/// Per-thread selection buffers. A selection runs in three linear passes:
///   1. stage(): dedupe by id through an open-addressing index, keeping the
///      youngest entry per id, and drop `exclude` and expired entries;
///   2. group_candidates(): a counting sort by group — routing slot for
///      merge(), common-cell level for subset_into();
///   3. sort each (small) group by (age, id).
/// Groups in index order, each by (age, id), is the total order the
/// selection ranks by.
struct Vicinity::Scratch {
  /// Starts a selection of up to `expected` staged entries.
  void begin(NodeId exclude_id, std::uint32_t max_age_cycles, std::size_t expected) {
    exclude = exclude_id;
    max_age = max_age_cycles;
    unique.clear();
    // At most half full, so every probe sequence ends at an empty cell.
    bits = std::max(4, static_cast<int>(std::bit_width(2 * expected)));
    const std::size_t cells = std::size_t{1} << bits;
    if (index.size() < cells) index.assign(cells, 0);
    // Cells tagged with an earlier stamp read as empty: no clearing pass.
    if (++stamp == 0) {
      std::fill(index.begin(), index.end(), 0);
      stamp = 1;
    }
  }

  void stage(CompactPeer p) {
    if (p.id == exclude || p.age > max_age) return;
    const std::size_t mask = (std::size_t{1} << bits) - 1;
    std::size_t h = (p.id * 0x9E3779B1u) >> (32 - bits);
    for (;; h = (h + 1) & mask) {
      const std::uint64_t cell = index[h];
      if (static_cast<std::uint32_t>(cell >> 32) != stamp) {
        index[h] = (static_cast<std::uint64_t>(stamp) << 32) | unique.size();
        unique.push_back(p);
        return;
      }
      CompactPeer& seen = unique[static_cast<std::uint32_t>(cell)];
      if (seen.id == p.id) {
        seen.age = std::min(seen.age, p.age);
        return;
      }
    }
  }

  /// Counting sort of `unique` into `ranked` by group[i] < groups (kNoGroup
  /// entries are left out); group g ends up at [begin_of(g), bounds[g]).
  void group_candidates(std::size_t groups) {
    bounds.assign(groups, 0);
    for (const std::uint32_t g : group)
      if (g != kNoGroup) ++bounds[g];
    std::uint32_t start = 0;
    for (std::uint32_t& b : bounds) start += std::exchange(b, start);
    ranked.resize(start);
    for (std::size_t i = 0; i < unique.size(); ++i)
      if (group[i] != kNoGroup) ranked[bounds[group[i]]++] = age_id_key(unique[i]);
  }
  std::uint32_t begin_of(std::size_t g) const { return g == 0 ? 0 : bounds[g - 1]; }

  /// Sorts group g by (age, id) and returns its range in `ranked`.
  std::pair<std::uint32_t, std::uint32_t> sorted_group(std::size_t g) {
    const std::uint32_t b = begin_of(g);
    std::sort(ranked.begin() + b, ranked.begin() + bounds[g]);
    return {b, bounds[g]};
  }

  // stage(): `index` cells hold (stamp << 32) | a position in `unique`,
  // which keeps the youngest entry per id in staging order.
  NodeId exclude = kInvalidNode;
  std::uint32_t max_age = 0;
  int bits = 4;
  std::uint32_t stamp = 0;
  std::vector<std::uint64_t> index;
  std::vector<CompactPeer> unique;
  // group_candidates(): the group of each entry of `unique`, the group
  // bounds, and the grouped age_id_key values. merge() lists its non-empty
  // groups in `runs`.
  std::vector<std::uint32_t> group;
  std::vector<std::uint32_t> bounds;
  std::vector<std::uint64_t> ranked;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  std::vector<CompactPeer> subset;  // random-subset fallback
  std::vector<CompactPeer> kept;    // merge() winners, swapped into view_
};

Vicinity::Vicinity(NodeId self, const Cells& cells, DescriptorStore& store,
                   const VicinityConfig& cfg, Rng& rng, SendFn send)
    : cells_(cells), store_(store), cfg_(cfg), rng_(rng), send_(std::move(send)),
      view_(cfg.view_size), self_(self) {}

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
  s.begin(self_, cfg_.max_age, view_.size() + received.size() + cyclon_view.size());
  for (const CompactPeer p : view_.entries()) s.stage(p);
  for (const auto& d : received) {
    store_.put_if_absent(d.id, d.values);
    s.stage({d.id, d.age});
  }
  // Exploit the CYCLON stream as an extra candidate source (two-layer
  // coupling from [9]): random entries occasionally fill empty slots.
  for (const CompactPeer p : cyclon_view.entries()) s.stage(p);
  // Winners land in s.kept before adopt() swaps it with the view; the
  // displaced entries stay in s.kept as warm capacity for the next merge.
  select_into(s, cfg_.view_size, s.kept);
  view_.adopt(s.kept);
}

std::vector<PeerDescriptor> Vicinity::select_best(
    std::vector<PeerDescriptor> candidates, std::size_t cap) const {
  Scratch& s = thread_scratch<Scratch>();
  s.begin(self_, cfg_.max_age, candidates.size());
  for (const auto& c : candidates) {
    store_.put_if_absent(c.id, c.values);
    s.stage({c.id, c.age});
  }
  std::vector<CompactPeer> kept;
  select_into(s, cap, kept);
  std::vector<PeerDescriptor> out;
  out.reserve(kept.size());
  for (CompactPeer p : kept) out.push_back(materialize(store_, p));
  return out;
}

void Vicinity::select_into(Scratch& s, std::size_t cap,
                           std::vector<CompactPeer>& out) const {
  // Group by routing slot relative to self, in (level, dim) order: group 0
  // is the level-0 cohabitants (neighborsZero must be complete), then
  // N(l,k) is group 1 + (l-1)*d + k. Coordinates outside the space have no
  // slot and drop out.
  const int d = cells_.space().dimensions();
  const CellIndex* self_coord = store_.coord_ptr(self_);
  s.group.clear();
  for (const CompactPeer p : s.unique) {
    const auto slot = cells_.classify(self_coord, store_.coord_ptr(p.id));
    if (!slot) {
      s.group.push_back(kNoGroup);
    } else {
      const int g = slot->level == 0 ? 0 : 1 + (slot->level - 1) * d + slot->dim;
      s.group.push_back(static_cast<std::uint32_t>(g));
    }
  }
  const std::size_t groups = 1 + static_cast<std::size_t>(cells_.space().max_level() * d);
  s.group_candidates(groups);
  s.runs.clear();
  for (std::size_t g = 0; g < groups; ++g)
    if (s.begin_of(g) != s.bounds[g]) s.runs.push_back(s.sorted_group(g));

  // Round-robin across groups: first pass gives every slot one (young)
  // representative; later passes add backups until capacity.
  out.clear();
  out.reserve(std::min(cap, s.ranked.size()));
  for (std::size_t round = 0; out.size() < cap; ++round) {
    bool any = false;
    for (const auto& [begin, end] : s.runs) {
      if (begin + round < end && out.size() < cap) {
        out.push_back(peer_of(s.ranked[begin + round]));
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
  s.begin(target, cfg_.max_age, 1 + view_.size() + cyclon_view.size());
  s.stage({self_, 0});  // always advertise ourselves
  for (const CompactPeer p : view_.entries()) s.stage(p);
  for (const CompactPeer p : cyclon_view.entries()) s.stage(p);

  // Rank by usefulness to the target: lowest common-cell level first (level
  // 0 = same zero cell = most useful), then youngest. Candidates that cannot
  // be classified against the target rank last, in group max(l) + 1.
  const CellIndex* target_coord = store_.coord_ptr(target);
  const int unranked = cells_.space().max_level() + 1;
  s.group.clear();
  for (const CompactPeer p : s.unique) {
    const auto slot = cells_.classify(target_coord, store_.coord_ptr(p.id));
    s.group.push_back(static_cast<std::uint32_t>(slot ? slot->level : unranked));
  }
  const auto groups = static_cast<std::size_t>(unranked) + 1;
  s.group_candidates(groups);

  // Only the groups that reach into the first k need their order.
  const bool truncated = s.ranked.size() > k;
  out.clear();
  out.reserve(std::min(k, s.ranked.size()));
  for (std::size_t g = 0; g < groups && out.size() < k; ++g) {
    const auto [begin, end] = s.sorted_group(g);
    for (std::uint32_t i = begin; i < end && out.size() < k; ++i)
      out.push_back(materialize(store_, peer_of(s.ranked[i])));
  }
  if (truncated) {
    // Self must always be advertised (the remove-on-exploit washout relies
    // on a live partner re-entering through its reply): if truncation cut
    // it, put it back in the last slot.
    bool has_self = false;
    for (const auto& e : out) has_self = has_self || e.id == self_;
    if (!has_self && !out.empty()) out.back() = materialize(store_, {self_, 0});
  }
}

}  // namespace ares
