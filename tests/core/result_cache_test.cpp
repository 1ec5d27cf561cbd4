#include "core/result_cache.h"

#include <gtest/gtest.h>

#include "space/query.h"

namespace ares {
namespace {

// uniform(2, 3, 0, 80): 8 level-0 cells per dimension, width 10. Cell 0
// covers [0, 9] but clamps low outliers in (unbounded below); cell 7 covers
// [70, +inf) (open above).
AttributeSpace test_space() { return AttributeSpace::uniform(2, 3, 0, 80); }

Region box(CellIndex lo0, CellIndex hi0, CellIndex lo1, CellIndex hi1) {
  IntervalVec ivs;
  ivs.push_back({lo0, hi0});
  ivs.push_back({lo1, hi1});
  return Region(ivs);
}

TEST(FragmentKey, InteriorBoundsClampToSubcellExtent) {
  auto space = test_space();
  Region sub = box(2, 3, 4, 5);  // values [20,39] x [40,59]
  // Query bounds wider than the subcell canonicalize to the extent...
  auto wide = make_fragment_key(space, sub, RangeQuery::any(2).with(0, 5, 77));
  // ...so they key identically to a fully unbounded query.
  auto open = make_fragment_key(space, sub, RangeQuery::any(2));
  EXPECT_EQ(wide, open);
  EXPECT_EQ(wide.hash(), open.hash());
  EXPECT_EQ(wide.lo_mask, 0b11u);
  EXPECT_EQ(wide.hi_mask, 0b11u);
  EXPECT_EQ(wide.lo[0], 20u);
  EXPECT_EQ(wide.hi[0], 39u);
  EXPECT_EQ(wide.lo[1], 40u);
  EXPECT_EQ(wide.hi[1], 59u);
}

TEST(FragmentKey, TighterBoundInsideSubcellIsPreserved) {
  auto space = test_space();
  Region sub = box(2, 3, 4, 5);
  auto tight = make_fragment_key(space, sub, RangeQuery::any(2).with(0, 25, 33));
  auto open = make_fragment_key(space, sub, RangeQuery::any(2));
  EXPECT_FALSE(tight == open);  // different match sets inside the subcell
  EXPECT_EQ(tight.lo[0], 25u);
  EXPECT_EQ(tight.hi[0], 33u);
}

TEST(FragmentKey, CellZeroKeepsQueryLowerBoundVerbatim) {
  auto space = test_space();
  Region sub = box(0, 1, 0, 7);  // dim 0 includes cell 0: unbounded below
  auto open = make_fragment_key(space, sub, RangeQuery::any(2));
  EXPECT_EQ(open.lo_mask, 0u);  // no synthetic floor on either dim
  auto bounded = make_fragment_key(space, sub, RangeQuery::any(2).with(0, 3, 100));
  EXPECT_EQ(bounded.lo_mask, 0b01u);
  EXPECT_EQ(bounded.lo[0], 3u);  // kept verbatim, not clamped to cell edge
  EXPECT_FALSE(open == bounded);
}

TEST(FragmentKey, TopCellKeepsQueryUpperBoundVerbatim) {
  auto space = test_space();
  Region sub = box(6, 7, 0, 7);  // dim 0 reaches cell 7: open above
  auto open = make_fragment_key(space, sub, RangeQuery::any(2));
  EXPECT_EQ(open.hi_mask, 0u);
  auto bounded =
      make_fragment_key(space, sub, RangeQuery::any(2).with(0, std::nullopt, 95));
  EXPECT_EQ(bounded.hi_mask, 0b01u);
  EXPECT_EQ(bounded.hi[0], 95u);
  EXPECT_FALSE(open == bounded);
}

TEST(FragmentKey, CoversRequiresSameSubcellAndContainment) {
  auto space = test_space();
  Region sub = box(2, 3, 4, 5);
  auto outer = make_fragment_key(space, sub, RangeQuery::any(2).with(0, 22, 38));
  auto inner = make_fragment_key(space, sub, RangeQuery::any(2).with(0, 25, 33));
  EXPECT_TRUE(fragment_covers(outer, inner));
  EXPECT_FALSE(fragment_covers(inner, outer));
  EXPECT_TRUE(fragment_covers(outer, outer));
  // Absent outer bound covers any inner bound; absent inner bound is wider
  // than any present outer bound.
  auto unbounded = make_fragment_key(space, sub, RangeQuery::any(2));
  EXPECT_TRUE(fragment_covers(unbounded, outer));
  EXPECT_FALSE(fragment_covers(outer, unbounded));
  // Same ranges, different subcell: never answerable from each other.
  auto elsewhere =
      make_fragment_key(space, box(2, 3, 6, 7), RangeQuery::any(2).with(0, 22, 38));
  EXPECT_FALSE(fragment_covers(outer, elsewhere));
}

MatchRecord rec(NodeId id) { return MatchRecord{id, {1, 2}}; }

FragmentKey key_at(const AttributeSpace& space, CellIndex c) {
  return make_fragment_key(space, Region(IntervalVec{{c, c}, {0, 7}}),
                           RangeQuery::any(2));
}

TEST(ResultCache, ZeroCapacityDisablesEverything) {
  ResultCache cache(0, 8);
  EXPECT_FALSE(cache.enabled());
  auto space = test_space();
  EXPECT_FALSE(cache.insert(key_at(space, 1), {rec(1)}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key_at(space, 1)), nullptr);
  EXPECT_EQ(cache.age_tick(), 0u);
}

TEST(ResultCache, HitMissAndReplacement) {
  auto space = test_space();
  ResultCache cache(4, 8);
  EXPECT_EQ(cache.lookup(key_at(space, 1)), nullptr);  // a miss
  EXPECT_FALSE(cache.insert(key_at(space, 1), {rec(10), rec(11)}));
  const auto* e = cache.lookup(key_at(space, 1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->records.size(), 2u);
  // Re-inserting the same key replaces records and resets age; it evicts
  // nothing.
  EXPECT_FALSE(cache.insert(key_at(space, 1), {rec(12)}));
  EXPECT_EQ(cache.size(), 1u);
  e = cache.lookup(key_at(space, 1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->records.size(), 1u);
  EXPECT_EQ(e->records[0].id, 12u);
}

TEST(ResultCache, LruEvictionPrefersStaleEntries) {
  auto space = test_space();
  ResultCache cache(2, 8);
  EXPECT_FALSE(cache.insert(key_at(space, 1), {rec(1)}));
  EXPECT_FALSE(cache.insert(key_at(space, 2), {rec(2)}));
  // Touch 1 so 2 becomes least-recently-used.
  EXPECT_NE(cache.lookup(key_at(space, 1)), nullptr);
  EXPECT_TRUE(cache.insert(key_at(space, 3), {rec(3)}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(key_at(space, 1)), nullptr);
  EXPECT_EQ(cache.lookup(key_at(space, 2)), nullptr);  // evicted
  EXPECT_NE(cache.lookup(key_at(space, 3)), nullptr);
}

TEST(ResultCache, AgeTickDropsPastHorizonButLookupDoesNotRefreshAge) {
  auto space = test_space();
  ResultCache cache(4, 2);
  cache.insert(key_at(space, 1), {rec(1)});
  EXPECT_EQ(cache.age_tick(), 0u);
  EXPECT_EQ(cache.age_tick(), 0u);
  // Age 2 == horizon: still alive; an LRU touch must not reset the age.
  ASSERT_NE(cache.lookup(key_at(space, 1)), nullptr);
  EXPECT_EQ(cache.lookup(key_at(space, 1))->age, 2u);
  EXPECT_EQ(cache.age_tick(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(key_at(space, 1)), nullptr);
}

TEST(ResultCache, MemoryBytesCountEntriesAndTheirRecords) {
  // The bytes grow by exactly what an insert adds (one entry's nodes plus
  // its records) and return to the empty figure once eviction and aging
  // have dropped every entry. An index never gives back its bucket array,
  // so "empty" is read after one fill to capacity.
  auto space = test_space();
  ResultCache cache(2, 1);
  auto records = [](std::size_t n) {
    std::vector<MatchRecord> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(rec(static_cast<NodeId>(i + 1)));
    return v;
  };
  auto drain = [&cache] {
    cache.age_tick();
    cache.age_tick();  // past the horizon of 1
  };
  cache.insert(key_at(space, 1), {});
  cache.insert(key_at(space, 2), {});
  drain();
  ASSERT_EQ(cache.size(), 0u);
  const std::size_t empty = cache.memory_bytes();
  EXPECT_GE(empty, sizeof(ResultCache));

  cache.insert(key_at(space, 1), {});
  const std::size_t entry = cache.memory_bytes() - empty;  // no records
  EXPECT_GT(entry, sizeof(ResultCache::Entry));
  cache.insert(key_at(space, 2), records(3));
  EXPECT_EQ(cache.memory_bytes(), empty + 2 * entry + 3 * sizeof(MatchRecord));
  // Capacity pressure evicts key 1: its entry goes as the newcomer's comes.
  EXPECT_TRUE(cache.insert(key_at(space, 3), records(5)));
  EXPECT_EQ(cache.memory_bytes(), empty + 2 * entry + 8 * sizeof(MatchRecord));
  // A replaced fragment counts its new records only.
  cache.insert(key_at(space, 3), records(1));
  EXPECT_EQ(cache.memory_bytes(), empty + 2 * entry + 4 * sizeof(MatchRecord));
  drain();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.memory_bytes(), empty);
}

}  // namespace
}  // namespace ares
