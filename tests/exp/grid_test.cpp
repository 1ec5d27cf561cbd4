#include "exp/grid.h"

#include <gtest/gtest.h>

#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config base_config(std::size_t n = 100) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 5;
  cfg.protocol.gossip_enabled = false;
  return cfg;
}

TEST(Grid, PopulatesRequestedNodeCount) {
  auto cfg = base_config(123);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  EXPECT_EQ(grid.node_ids().size(), 123u);
  EXPECT_EQ(grid.net().population(), 123u);
}

TEST(Grid, AddNodeWithExplicitValues) {
  auto cfg = base_config(10);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId id = grid.add_node({42, 17});
  EXPECT_EQ(grid.node(id).values(), (Point{42, 17}));
}

TEST(Grid, RemoveNode) {
  auto cfg = base_config(10);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId victim = grid.node_ids().front();
  grid.remove_node(victim);
  EXPECT_FALSE(grid.net().alive(victim));
  EXPECT_EQ(grid.node_ids().size(), 9u);
}

TEST(Grid, GroundTruthMatchesManualScan) {
  auto cfg = base_config(200);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto q = RangeQuery::any(2).with(0, 30, 50);
  auto truth = grid.ground_truth(q);
  std::size_t manual = 0;
  for (NodeId id : grid.node_ids())
    if (q.matches(grid.node(id).values())) ++manual;
  EXPECT_EQ(truth.size(), manual);
}

TEST(Grid, GroundTruthRespectsDynamicFilters) {
  auto cfg = base_config(50);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  for (NodeId id : grid.node_ids()) grid.node(id).set_dynamic_values({5});
  auto q = RangeQuery::any(2).with_dynamic(0, 10, std::nullopt);
  EXPECT_TRUE(grid.ground_truth(q).empty());
}

TEST(Grid, RandomNodeReturnsLiveNode) {
  auto cfg = base_config(20);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(grid.net().alive(grid.random_node()));
}

TEST(Grid, DeterministicAcrossRuns) {
  auto cfg = base_config(50);
  Grid a(cfg, uniform_points(cfg.space, 0, 80));
  Grid b(cfg, uniform_points(cfg.space, 0, 80));
  auto ia = a.node_ids();
  auto ib = b.node_ids();
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t i = 0; i < ia.size(); ++i)
    EXPECT_EQ(a.node(ia[i]).values(), b.node(ib[i]).values());
}

TEST(Grid, DifferentSeedsDiffer) {
  auto cfg1 = base_config(50);
  auto cfg2 = base_config(50);
  cfg2.seed = 99;
  Grid a(cfg1, uniform_points(cfg1.space, 0, 80));
  Grid b(cfg2, uniform_points(cfg2.space, 0, 80));
  bool any_diff = false;
  auto ia = a.node_ids(), ib = b.node_ids();
  for (std::size_t i = 0; i < ia.size(); ++i)
    any_diff = any_diff || a.node(ia[i]).values() != b.node(ib[i]).values();
  EXPECT_TRUE(any_diff);
}

TEST(Grid, ChurnFactoryProducesProtocolNodes) {
  auto cfg = base_config(30);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto factory = grid.churn_factory();
  NodeId id = grid.net().add_node(factory());
  EXPECT_NE(grid.net().find_as<SelectionNode>(id), nullptr);
  EXPECT_EQ(grid.node_ids().size(), 31u);
}

TEST(Grid, RunQueryHorizonPreventsHangs) {
  auto cfg = base_config(30);
  cfg.protocol.gossip_enabled = true;  // endless background events
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto out = grid.run_query(grid.random_node(), RangeQuery::any(2), kNoSigma,
                            /*horizon=*/120 * kSecond);
  EXPECT_TRUE(out.completed);  // completes long before the horizon
}

TEST(Grid, RejectsUnknownLatencyModel) {
  auto cfg = base_config(1);
  cfg.latency = "carrier-pigeon";
  EXPECT_THROW(Grid(cfg, uniform_points(cfg.space, 0, 80)), std::invalid_argument);
}

TEST(Grid, RejectsShardCountOutsideRange) {
  for (std::uint32_t shards : {0u, 65u}) {
    auto cfg = base_config(10);
    cfg.shards = shards;
    EXPECT_THROW(Grid(cfg, uniform_points(cfg.space, 0, 80)), std::invalid_argument)
        << "shards=" << shards;
  }
  auto cfg = base_config(10);
  cfg.shards = 64;
  EXPECT_NO_THROW(Grid(cfg, uniform_points(cfg.space, 0, 80)));
}

TEST(Grid, RejectsQueryTracingAboveOneShard) {
  // The tracer's maps are unsynchronised; shard workers would race on them.
  for (std::uint32_t shards : {2u, 8u}) {
    auto cfg = base_config(10);
    cfg.trace_queries = true;
    cfg.shards = shards;
    EXPECT_THROW(Grid(cfg, uniform_points(cfg.space, 0, 80)), std::invalid_argument)
        << "shards=" << shards;
  }
  auto cfg = base_config(10);
  cfg.trace_queries = true;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto out = grid.run_query(grid.random_node(), RangeQuery::any(2).with(0, 0, 39));
  ASSERT_NE(grid.tracer(), nullptr);
  EXPECT_NE(grid.tracer()->find(out.id), nullptr);
  EXPECT_EQ(grid.stats().completed_count(), 1u);  // the tracer feeds sink 0
}

TEST(Grid, StatsAccumulateAcrossQueries) {
  auto cfg = base_config(100);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  grid.run_query(grid.random_node(), RangeQuery::any(2).with(0, 0, 39));
  grid.run_query(grid.random_node(), RangeQuery::any(2).with(1, 40, std::nullopt));
  EXPECT_EQ(grid.stats().completed_count(), 2u);
  EXPECT_EQ(grid.stats().per_query().size(), 2u);
}

}  // namespace
}  // namespace ares
