#pragma once

/// \file result_cache.h
/// Per-node bounded LRU cache of fully-resolved query fragments, the first
/// half of the high-throughput query-serving fast path (the second is the
/// shared-traversal coalescing in selection_node.cpp). A fragment is the
/// result of one delegated DFS branch: every node inside one subcell
/// N(l,k)(X) that matches the query's value ranges. When a branch reply
/// reports its subtree complete (ReplyMsg::complete), the forwarder stores
/// the fragment; a later query about to forward into the same subcell with
/// equivalent value ranges is answered locally, skipping the whole subtree.
///
/// Key design: matching is value-granular while subcells are cell-granular,
/// so the key cannot be the (subcell, region) pair alone — two queries with
/// the same cell-level footprint but different value bounds in edge cells
/// have different match sets. The canonical key is the subcell box plus the
/// query's per-dimension value ranges CLAMPED to the subcell's value extent:
/// within the subcell, a node matches the query iff it matches the clamped
/// ranges (a node's value along d is >= the subcell's floor whenever its
/// lowest cell index is > 0, and <= the ceiling whenever the extent is not
/// open-ended), so equal clamped keys imply equal match sets. Dimensions
/// whose extent is unbounded on a side (cell 0 clamps low outliers in;
/// the top cell is open above) keep the query's own bound verbatim.
///
/// Invalidation is age-based: entries age one step per gossip cycle
/// (SelectionNode::gossip_tick) and are dropped past a configured horizon,
/// so churn-induced staleness is bounded by horizon x gossip_period. With
/// gossip disabled entries never age — a static deployment cannot go stale.
/// Staleness is metered (age_tick() returns the drops; the node counts them
/// as query.cache_stale), never silent.

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "core/messages.h"
#include "space/query.h"
#include "space/region.h"

namespace ares {

/// Canonical identity of a delegated fragment: subcell box + clamped ranges.
struct FragmentKey {
  Region subcell;
  /// Bit d set <=> the clamped range has a lower / upper bound along d.
  std::uint32_t lo_mask = 0;
  std::uint32_t hi_mask = 0;
  /// Clamped inclusive bounds; entries for unset mask bits are 0 and
  /// ignored by comparison and hashing.
  Point lo;
  Point hi;

  bool operator==(const FragmentKey& o) const;
  std::uint64_t hash() const;
};

/// Builds the canonical key for `q` delegated into `subcell` (level-0 index
/// box of one N(l,k) neighbor subcell). Precondition: q has no dynamic
/// filters (dynamic attributes are checked live and must never be cached).
FragmentKey make_fragment_key(const AttributeSpace& space, const Region& subcell,
                              const RangeQuery& q);

/// True when a fragment with key `inner` is answerable from the records of
/// a fragment with key `outer`: same subcell, and outer's clamped ranges
/// contain inner's on every dimension. Used by query coalescing to let a
/// later branch ride an open shared traversal.
bool fragment_covers(const FragmentKey& outer, const FragmentKey& inner);

/// Bounded LRU of resolved fragments. Deterministic: lookups go through a
/// hash index but no code path iterates it (aging and eviction walk the LRU
/// list); a hash collision between unequal keys is treated as a miss and
/// resolved by replacement.
class ResultCache {
 public:
  struct Entry {
    FragmentKey key;
    std::vector<MatchRecord> records;
    std::uint32_t age = 0;  // gossip cycles since insertion
  };

  /// \param capacity max entries (0 disables the cache entirely)
  /// \param horizon entries older than this many age_tick()s are dropped
  ResultCache(std::size_t capacity, std::uint32_t horizon)
      : capacity_(capacity), horizon_(horizon) {}

  bool enabled() const { return capacity_ > 0; }
  std::size_t size() const { return lru_.size(); }

  /// The object plus the heap it owns: one LRU list node per entry with
  /// the records it holds, and the index (its bucket array, once it has
  /// one, plus one node per entry).
  std::size_t memory_bytes() const;

  /// Returns the cached fragment (refreshing its LRU position, not its age)
  /// or nullptr, which is a miss.
  const Entry* lookup(const FragmentKey& k);

  /// Stores a resolved fragment, replacing any entry with the same key (or
  /// colliding hash) and evicting the least-recently-used entry at capacity.
  /// Returns whether an entry was evicted.
  bool insert(const FragmentKey& k, std::vector<MatchRecord> records);

  /// Ages every entry by one gossip cycle; drops entries past the horizon
  /// and returns how many it dropped.
  std::size_t age_tick();

 private:
  std::size_t capacity_;
  std::uint32_t horizon_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
};

}  // namespace ares
