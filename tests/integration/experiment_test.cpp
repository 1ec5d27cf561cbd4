#include "exp/experiment.h"

#include <gtest/gtest.h>

#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace ares {
namespace {

Grid::Config harness_config(std::size_t n = 300) {
  Grid::Config cfg{.space = AttributeSpace::uniform(3, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 21;
  cfg.protocol.gossip_enabled = false;
  return cfg;
}

TEST(ExperimentHarness, RunQueriesReportsPerfectDeliveryOnStableGrid) {
  auto cfg = harness_config();
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  Rng rng(1);
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 5; ++i)
    queries.push_back(best_case_query(grid.space(), 0.125, rng));
  auto stats = exp::run_queries(grid, queries, kNoSigma, 2);
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.completed, 10u);
  EXPECT_DOUBLE_EQ(stats.mean_delivery, 1.0);
  EXPECT_EQ(stats.duplicates, 0u);
  EXPECT_GT(stats.mean_latency_s, 0.0);
  EXPECT_GT(stats.sim_events, 0u);
  // No churn: a late event would mean something scheduled into the past.
  EXPECT_EQ(stats.late_events, 0u);
}

TEST(ExperimentHarness, SigmaDeliveryMeasuredAgainstSigma) {
  auto cfg = harness_config();
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  std::vector<RangeQuery> queries{RangeQuery::any(3)};
  auto stats = exp::run_queries(grid, queries, /*sigma=*/10, 3);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_GE(stats.mean_delivery, 1.0);  // at least sigma found
  EXPECT_GE(stats.mean_matches, 10.0);
  EXPECT_EQ(stats.late_events, 0u);
}

TEST(ExperimentHarness, MeasureLoadCountsOnlyQueryTraffic) {
  // Drains count traffic in per-shard stats instances at any shard count.
  for (std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    auto cfg = harness_config(200);
    cfg.protocol.gossip_enabled = true;  // gossip running but filtered out
    cfg.shards = shards;
    Grid grid(cfg, uniform_points(cfg.space, 0, 80));
    Rng rng(3);
    std::vector<RangeQuery> queries{best_case_query(grid.space(), 0.25, rng)};
    auto load = exp::measure_load(grid, queries, kNoSigma, 5);
    std::uint64_t sent_total = 0;
    for (auto c : load.sent) sent_total += c;
    std::uint64_t recv_total = 0;
    for (auto c : load.received) recv_total += c;
    EXPECT_GT(sent_total, 0u);
    // Query and reply counts must balance (every sent query/reply that is
    // delivered is received; no dead nodes here).
    EXPECT_EQ(sent_total, recv_total);
  }
}

TEST(ExperimentHarness, NeighborCountsPositive) {
  auto cfg = harness_config(300);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto s = exp::neighbor_counts(grid);
  EXPECT_EQ(s.count(), 300u);
  EXPECT_GT(s.mean(), 1.0);
  EXPECT_LT(s.mean(), 60.0);
}

TEST(ExperimentHarness, PercentOfMaxHistogram) {
  std::vector<std::uint64_t> counts{10, 5, 1, 10};
  auto h = exp::percent_of_max_histogram(counts);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(9), 2u);  // the two maxima in bucket 90-100
  EXPECT_EQ(h.count(5), 1u);  // 50%
  EXPECT_EQ(h.count(1), 1u);  // 10%
}

TEST(ExperimentHarness, PercentOfMaxHistogramAllZeros) {
  auto h = exp::percent_of_max_histogram({0, 0, 0});
  EXPECT_EQ(h.total(), 0u);
}

TEST(ExperimentHarness, DeliveryTimelineOnStableGridIsOne) {
  auto cfg = harness_config(200);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto series = exp::delivery_timeline(
      grid,
      [&](Rng& rng) { return best_case_query(grid.space(), 0.25, rng); },
      /*duration=*/120 * kSecond, /*interval=*/30 * kSecond,
      /*settle=*/60 * kSecond);
  ASSERT_GE(series.size(), 3u);
  for (const auto& pt : series) {
    EXPECT_DOUBLE_EQ(pt.delivery, 1.0) << "t=" << pt.t_seconds;
    EXPECT_GT(pt.ground_truth, 0u);
  }
}

}  // namespace
}  // namespace ares
