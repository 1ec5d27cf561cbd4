/// merge_records against the code it replaced: the candidate set used to be
/// a FlatMap<NodeId, MatchRecord> that absorbed every incoming record with
/// emplace(), one at a time. Any sequence of runs must leave the merged
/// vector equal to that map's iteration, record for record.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/sorted.h"
#include "core/messages.h"

namespace ares {
namespace {

/// A strictly ascending run of `n` distinct ids drawn from [lo, lo + span).
/// Values carry a per-run tag, so a record that won a duplicate id can be
/// told from the one that lost.
std::vector<MatchRecord> random_run(Rng& rng, std::size_t n, NodeId lo, NodeId span,
                                    AttrValue tag) {
  std::vector<MatchRecord> run;
  for (std::size_t idx : rng.sample_indices(span, std::min<std::size_t>(n, span)))
    run.push_back({lo + static_cast<NodeId>(idx), Point{tag, rng.below(1000)}});
  auto by_id = [](const MatchRecord& a, const MatchRecord& b) { return a.id < b.id; };
  std::sort(run.begin(), run.end(), by_id);
  return run;
}

void expect_same(const std::vector<MatchRecord>& merged,
                 const FlatMap<NodeId, MatchRecord>& reference) {
  ASSERT_EQ(merged.size(), reference.size());
  std::size_t i = 0;
  for (const auto& [id, rec] : reference) {
    EXPECT_EQ(merged[i].id, id) << "at " << i;
    EXPECT_EQ(merged[i].values, rec.values) << "id " << id;
    ++i;
  }
  EXPECT_TRUE(ids_ascending(merged));
}

TEST(MergeRecords, MatchesSequentialFlatMapEmplace) {
  Rng rng(20091);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<MatchRecord> merged;
    FlatMap<NodeId, MatchRecord> reference;
    const int runs = 1 + static_cast<int>(rng.below(6));
    for (int r = 0; r < runs; ++r) {
      // Mix the shapes the protocol produces: runs that interleave with
      // what is held, runs past the last held id (the append fast path),
      // runs below it, empty runs, and runs that repeat held ids.
      NodeId lo = 0;
      NodeId span = 64;
      switch (rng.below(4)) {
        case 0:  // overlaps the held ids, duplicates likely
          break;
        case 1:  // starts past the last held id: the append fast path
          lo = merged.empty() ? 0 : merged.back().id + 1;
          break;
        case 2:  // dense: mostly duplicates
          span = 8;
          break;
        default:
          lo = static_cast<NodeId>(rng.below(200));
          span = 1 + static_cast<NodeId>(rng.below(300));
          break;
      }
      const std::size_t n = rng.below(40);
      const auto run = random_run(rng, n, lo, span, static_cast<AttrValue>(r));
      for (const MatchRecord& m : run) reference.emplace(m.id, m);
      merge_records(merged, run);
      expect_same(merged, reference);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(MergeRecords, HeldRecordWinsOnEqualIds) {
  std::vector<MatchRecord> held = {{2, {1}}, {5, {1}}, {9, {1}}};
  const std::vector<MatchRecord> run = {{1, {2}}, {5, {2}}, {7, {2}}, {9, {2}}};
  merge_records(held, run);
  ASSERT_EQ(held.size(), 5u);
  const NodeId ids[] = {1, 2, 5, 7, 9};
  const AttrValue tags[] = {2, 1, 1, 2, 1};
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].id, ids[i]);
    EXPECT_EQ(held[i].values[0], tags[i]) << "id " << ids[i];
  }
}

TEST(MergeRecords, EmptySides) {
  std::vector<MatchRecord> held;
  merge_records(held, {});
  EXPECT_TRUE(held.empty());
  const std::vector<MatchRecord> run = {{3, {1}}, {4, {2}}};
  merge_records(held, run);
  ASSERT_EQ(held.size(), 2u);
  merge_records(held, {});
  EXPECT_EQ(held.size(), 2u);
}

TEST(MergeRecords, AllDuplicatesLeaveHeldUntouched) {
  std::vector<MatchRecord> held = {{3, {1}}, {4, {1}}, {8, {1}}};
  const std::vector<MatchRecord> run = {{3, {2}}, {8, {2}}};
  const auto before = held.capacity();
  merge_records(held, run);
  ASSERT_EQ(held.size(), 3u);
  EXPECT_EQ(held.capacity(), before);
  for (const MatchRecord& m : held) EXPECT_EQ(m.values[0], 1u);
}

TEST(MergeRecords, RunPastLastHeldIdAppends) {
  std::vector<MatchRecord> held = {{1, {1}}, {2, {1}}};
  const std::vector<MatchRecord> run = {{3, {2}}, {10, {2}}};
  merge_records(held, run);
  ASSERT_EQ(held.size(), 4u);
  EXPECT_EQ(held[2].id, 3u);
  EXPECT_EQ(held[3].id, 10u);
}

TEST(MergeRecords, IdsAscendingRejectsRepeatsAndDescents) {
  EXPECT_TRUE(ids_ascending(std::vector<MatchRecord>{}));
  EXPECT_TRUE(ids_ascending(std::vector<MatchRecord>{{7, {}}}));
  EXPECT_TRUE(ids_ascending(std::vector<MatchRecord>{{1, {}}, {2, {}}}));
  EXPECT_FALSE(ids_ascending(std::vector<MatchRecord>{{2, {}}, {2, {}}}));
  EXPECT_FALSE(ids_ascending(std::vector<MatchRecord>{{3, {}}, {1, {}}}));
}

}  // namespace
}  // namespace ares
