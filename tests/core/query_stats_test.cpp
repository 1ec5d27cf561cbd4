#include "core/query_stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <unordered_set>
#include <vector>

namespace ares {
namespace {

TEST(QueryStats, CountsOverheadOnlyForNonMatchingNonOrigin) {
  QueryStats s;
  auto& o = s.sink(0);
  o.on_query_visited(1, 10, /*matched=*/false, /*is_origin=*/true);
  o.on_query_visited(1, 11, false, false);
  o.on_query_visited(1, 12, true, false);
  const auto* pq = s.find(1);
  ASSERT_NE(pq, nullptr);
  EXPECT_EQ(pq->overhead, 1u);
  EXPECT_EQ(pq->hits, 1u);
  EXPECT_EQ(pq->origin, 10u);
}

TEST(QueryStats, MatchingOriginCountsAsHit) {
  QueryStats s;
  s.sink(0).on_query_visited(1, 10, true, true);
  EXPECT_EQ(s.find(1)->hits, 1u);
  EXPECT_EQ(s.find(1)->overhead, 0u);
}

TEST(QueryStats, DuplicateVisitsDetected) {
  QueryStats s(/*track_visited=*/true);
  auto& o = s.sink(0);
  o.on_query_visited(1, 11, true, false);
  o.on_query_visited(1, 11, true, false);
  const auto* pq = s.find(1);
  EXPECT_EQ(pq->duplicates, 1u);
  EXPECT_EQ(pq->hits, 1u);  // never double-counted
  EXPECT_EQ(s.total_duplicates(), 1u);
}

TEST(QueryStats, UntrackedModeCountsDeliveries) {
  QueryStats s(/*track_visited=*/false);
  auto& o = s.sink(0);
  o.on_query_visited(1, 11, true, false);
  o.on_query_visited(1, 11, true, false);  // duplicate undetectable
  const auto* pq = s.find(1);
  EXPECT_EQ(pq->duplicates, 0u);
  EXPECT_EQ(pq->hits, 2u);
  EXPECT_TRUE(pq->visited.empty());
}

TEST(QueryStats, CompletionRecordsResultSize) {
  QueryStats s;
  std::vector<MatchRecord> matches{{1, {1}}, {2, {2}}};
  s.sink(0).on_query_completed(7, 99, matches);
  const auto* pq = s.find(7);
  ASSERT_NE(pq, nullptr);
  EXPECT_TRUE(pq->completed);
  EXPECT_EQ(pq->result_size, 2u);
  EXPECT_EQ(pq->origin, 99u);
  EXPECT_EQ(s.completed_count(), 1u);
}

TEST(QueryStats, SeparateQueriesSeparateRecords) {
  QueryStats s;
  auto& o = s.sink(0);
  o.on_query_visited(1, 10, true, false);
  o.on_query_visited(2, 10, false, false);
  EXPECT_EQ(s.find(1)->hits, 1u);
  EXPECT_EQ(s.find(2)->overhead, 1u);
  EXPECT_EQ(s.per_query().size(), 2u);
}

TEST(QueryStats, MeanOverhead) {
  QueryStats s;
  auto& o = s.sink(0);
  o.on_query_visited(1, 10, false, false);
  o.on_query_visited(1, 11, false, false);
  o.on_query_visited(2, 12, false, false);
  EXPECT_DOUBLE_EQ(s.mean_overhead(), 1.5);
}

TEST(QueryStats, ClearResetsEverything) {
  QueryStats s(/*track_visited=*/true, /*sinks=*/2);
  s.sink(0).on_query_visited(1, 10, true, false);
  s.sink(1).on_query_visited(1, 11, true, false);
  s.sink(0).on_query_completed(1, 10, {});
  ASSERT_EQ(s.per_query().size(), 1u);
  s.clear();
  EXPECT_EQ(s.find(1), nullptr);
  EXPECT_TRUE(s.per_query().empty());
  EXPECT_EQ(s.total_hits(), 0u);
  EXPECT_EQ(s.completed_count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean_overhead(), 0.0);
}

// A query whose visits land in two sinks (its DFS crossed a shard boundary)
// and whose completion lands in one: every reader sees the summed row, and
// the query counts once in mean_overhead()'s denominator.
TEST(QueryStats, RowsInTwoSinksFoldOnRead) {
  QueryStats s(/*track_visited=*/true, /*sinks=*/2);
  auto& home = s.sink(0);
  auto& away = s.sink(1);
  home.on_query_visited(5, 10, /*matched=*/false, /*is_origin=*/true);
  home.on_query_forwarded(5, 10, 20, 2, 0);
  away.on_query_visited(5, 20, false, false);  // overhead
  away.on_query_forwarded(5, 20, 21, 1, 1);
  away.on_query_visited(5, 21, true, false);  // hit
  away.on_query_visited(5, 21, true, false);  // duplicate
  home.on_query_visited(5, 11, true, false);  // hit
  home.on_query_completed(5, 10, {{11, {1}}, {21, {2}}});
  away.on_query_visited(6, 22, false, false);  // another query, away only

  const auto* pq = s.find(5);
  ASSERT_NE(pq, nullptr);
  EXPECT_EQ(pq->origin, 10u);
  EXPECT_EQ(pq->overhead, 1u);
  EXPECT_EQ(pq->hits, 2u);
  EXPECT_EQ(pq->duplicates, 1u);
  EXPECT_EQ(pq->forwards, 2u);
  EXPECT_TRUE(pq->completed);
  EXPECT_EQ(pq->result_size, 2u);
  EXPECT_EQ(pq->visited, (std::unordered_set<NodeId>{10, 11, 20, 21}));
  EXPECT_EQ(pq->matched_visited, (std::unordered_set<NodeId>{11, 21}));

  const auto& rows = s.per_query();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.at(5).hits, 2u);
  EXPECT_EQ(rows.at(5).forwards, 2u);
  EXPECT_EQ(rows.at(6).overhead, 1u);
  EXPECT_EQ(s.total_overhead(), 2u);
  EXPECT_EQ(s.total_forwards(), 2u);
  EXPECT_EQ(s.completed_count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean_overhead(), 1.0);  // 2 overhead over 2 query ids
}

// The sink contract under real threads: each thread owns one sink (as each
// shard worker does) and every thread writes the same QueryIds, so every
// row is split across all sinks. TSan fails this test if two sinks share
// writable state; after the join the folded totals, the row count and the
// denominator of mean_overhead() must be exact. Reads are coordinator-only
// (after the join), so no reader runs concurrently.
TEST(QueryStatsConcurrency, MutatorsAndAccessorsRace) {
  constexpr std::uint32_t kThreads = 4;
  constexpr QueryId kQueries = 500;
  QueryStats s(/*track_visited=*/true, kThreads);
  std::vector<std::thread> writers;
  for (std::uint32_t t = 0; t < kThreads; ++t)
    writers.emplace_back([&o = s.sink(t), t] {
      const NodeId miss = 100 + t;
      const NodeId hit = 200 + t;
      for (QueryId q = 0; q < kQueries; ++q) {
        if (t == 0) o.on_query_visited(q, 10, /*matched=*/false, /*is_origin=*/true);
        o.on_query_visited(q, miss, false, false);  // overhead
        o.on_query_visited(q, hit, true, false);    // hit
        o.on_query_visited(q, hit, true, false);    // duplicate
        o.on_query_forwarded(q, miss, hit, 0, 0);
        if (t == 0) o.on_query_completed(q, 10, {});
      }
    });
  for (auto& w : writers) w.join();
  constexpr std::uint64_t kTotal = kThreads * kQueries;
  EXPECT_EQ(s.total_hits(), kTotal);
  EXPECT_EQ(s.total_overhead(), kTotal);
  EXPECT_EQ(s.total_duplicates(), kTotal);
  EXPECT_EQ(s.total_forwards(), kTotal);
  EXPECT_EQ(s.completed_count(), kQueries);
  EXPECT_EQ(s.per_query().size(), kQueries);
  EXPECT_DOUBLE_EQ(s.mean_overhead(), static_cast<double>(kThreads));
  const auto* pq = s.find(kQueries - 1);
  ASSERT_NE(pq, nullptr);
  EXPECT_EQ(pq->origin, 10u);
  EXPECT_TRUE(pq->completed);
  EXPECT_EQ(pq->hits, kThreads);
  EXPECT_EQ(pq->visited.size(), 2 * kThreads + 1);
}

}  // namespace
}  // namespace ares
