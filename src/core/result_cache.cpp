#include "core/result_cache.h"

#include <algorithm>
#include <cassert>

#include "common/hashing.h"

namespace ares {

bool FragmentKey::operator==(const FragmentKey& o) const {
  if (subcell != o.subcell || lo_mask != o.lo_mask || hi_mask != o.hi_mask)
    return false;
  for (std::size_t d = 0; d < lo.size(); ++d) {
    const std::uint32_t bit = std::uint32_t{1} << d;
    if ((lo_mask & bit) != 0 && lo[d] != o.lo[d]) return false;
    if ((hi_mask & bit) != 0 && hi[d] != o.hi[d]) return false;
  }
  return true;
}

std::uint64_t FragmentKey::hash() const {
  std::uint64_t h = hash_mix(kFnvOffset, static_cast<std::uint64_t>(lo.size()));
  for (int d = 0; d < subcell.dimensions(); ++d) {
    const IndexInterval& iv = subcell.interval(d);
    h = hash_mix(h, (std::uint64_t{iv.lo} << 32) | iv.hi);
  }
  h = hash_mix(h, (std::uint64_t{lo_mask} << 32) | hi_mask);
  for (std::size_t d = 0; d < lo.size(); ++d) {
    const std::uint32_t bit = std::uint32_t{1} << d;
    h = hash_mix(h, (lo_mask & bit) != 0 ? lo[d] : 0);
    h = hash_mix(h, (hi_mask & bit) != 0 ? hi[d] : 0);
  }
  return h;
}

FragmentKey make_fragment_key(const AttributeSpace& space, const Region& subcell,
                              const RangeQuery& q) {
  assert(!q.has_dynamic_filters());
  assert(q.dimensions() == subcell.dimensions());
  FragmentKey key;
  key.subcell = subcell;
  for (int d = 0; d < q.dimensions(); ++d) {
    const IndexInterval& iv = subcell.interval(d);
    const AttrRange& r = q.range(d);
    const std::uint32_t bit = std::uint32_t{1} << d;
    AttrValue lo = 0;
    AttrValue hi = 0;
    // Floor: every value placed in a cell with index > 0 is >= that cell's
    // lower edge, so the bound canonicalizes to max(query lo, extent lo).
    // Cell 0 clamps low outliers in — its population is unbounded below, so
    // the query's own bound (if any) is kept verbatim.
    if (iv.lo > 0) {
      const AttrValue floor = space.cell_value_lo(d, iv.lo);
      key.lo_mask |= bit;
      lo = std::max(r.lo.value_or(floor), floor);
    } else if (r.lo) {
      key.lo_mask |= bit;
      lo = *r.lo;
    }
    // Ceiling: symmetric, except the last cell is open-ended above.
    if (const auto ceil = space.cell_value_hi(d, iv.hi)) {
      key.hi_mask |= bit;
      hi = std::min(r.hi.value_or(*ceil), *ceil);
    } else if (r.hi) {
      key.hi_mask |= bit;
      hi = *r.hi;
    }
    key.lo.push_back(lo);
    key.hi.push_back(hi);
  }
  return key;
}

bool fragment_covers(const FragmentKey& outer, const FragmentKey& inner) {
  if (outer.subcell != inner.subcell) return false;
  for (std::size_t d = 0; d < outer.lo.size(); ++d) {
    const std::uint32_t bit = std::uint32_t{1} << d;
    if ((outer.lo_mask & bit) != 0 &&
        ((inner.lo_mask & bit) == 0 || inner.lo[d] < outer.lo[d]))
      return false;
    if ((outer.hi_mask & bit) != 0 &&
        ((inner.hi_mask & bit) == 0 || inner.hi[d] > outer.hi[d]))
      return false;
  }
  return true;
}

const ResultCache::Entry* ResultCache::lookup(const FragmentKey& k) {
  if (!enabled()) return nullptr;
  auto it = index_.find(k.hash());
  if (it == index_.end() || !(it->second->key == k)) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &lru_.front();
}

bool ResultCache::insert(const FragmentKey& k, std::vector<MatchRecord> records) {
  if (!enabled()) return false;
  const std::uint64_t h = k.hash();
  auto it = index_.find(h);
  if (it != index_.end()) {
    // Same key resolved again (fresher records) or a hash collision: either
    // way the newcomer deterministically replaces the incumbent.
    Entry& e = *it->second;
    e.key = k;
    e.records = std::move(records);
    e.age = 0;
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  const bool evict = lru_.size() >= capacity_;
  if (evict) {
    index_.erase(lru_.back().key.hash());
    lru_.pop_back();
  }
  lru_.push_front(Entry{k, std::move(records), 0});
  index_.emplace(h, lru_.begin());
  return evict;
}

std::size_t ResultCache::memory_bytes() const {
  // A list node is two links and the entry; an index node is a next link
  // and the (hash, position) pair. A one-bucket table keeps its array inline.
  const std::size_t buckets = index_.bucket_count() > 1 ? index_.bucket_count() : 0;
  std::size_t n = sizeof(*this) + buckets * sizeof(void*) +
                  lru_.size() * (2 * sizeof(void*) + sizeof(Entry)) +
                  index_.size() * (sizeof(void*) + sizeof(decltype(index_)::value_type));
  for (const Entry& e : lru_) n += e.records.capacity() * sizeof(MatchRecord);
  return n;
}

std::size_t ResultCache::age_tick() {
  std::size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (++it->age > horizon_) {
      index_.erase(it->key.hash());
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace ares
