#include "core/trace.h"

#include <gtest/gtest.h>

#include <set>

#include "exp/grid.h"
#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config traced_config(std::size_t n = 200) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 15;
  cfg.protocol.gossip_enabled = false;
  cfg.trace_queries = true;
  return cfg;
}

TEST(QueryTracer, RecordsWellFormedTree) {
  auto cfg = traced_config();
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto q = RangeQuery::any(2).with(0, 20, 69);
  auto out = grid.run_query(grid.random_node(), q);
  ASSERT_TRUE(out.completed);

  ASSERT_NE(grid.tracer(), nullptr);
  const auto* t = grid.tracer()->find(out.id);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->completed);
  EXPECT_EQ(t->result_size, out.matches.size());

  // Tree shape: every visited node except the origin has exactly one
  // incoming edge; edge targets are visited.
  std::map<NodeId, int> indegree;
  for (const auto& e : t->edges) {
    ++indegree[e.to];
    EXPECT_TRUE(t->visited.contains(e.from)) << e.from;
    EXPECT_TRUE(t->visited.contains(e.to)) << e.to;
  }
  for (const auto& [node, matched] : t->visited) {
    if (node == t->origin) {
      EXPECT_EQ(indegree[node], 0);
    } else {
      EXPECT_EQ(indegree[node], 1) << "node " << node;
    }
  }
  EXPECT_EQ(t->edges.size(), t->visited.size() - 1);
}

TEST(QueryTracer, EdgeLabelsAreValidSlots) {
  auto cfg = traced_config();
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto out = grid.run_query(grid.random_node(), RangeQuery::any(2));
  const auto* t = grid.tracer()->find(out.id);
  ASSERT_NE(t, nullptr);
  Cells cells(grid.space());
  bool saw_probe = false;
  for (const auto& e : t->edges) {
    if (e.dim < 0) {
      saw_probe = true;  // C0 leaf probe
      continue;
    }
    EXPECT_GE(e.level, 1);
    EXPECT_LE(e.level, 3);
    EXPECT_LT(e.dim, 2);
    // The forward target really lies in the sender's N(level,dim).
    EXPECT_TRUE(cells
                    .neighbor_region(grid.node(e.from).coord(), e.level, e.dim)
                    .contains(grid.node(e.to).coord()));
  }
  EXPECT_TRUE(saw_probe);  // full enumeration must probe some C0 cohabitant
}

TEST(QueryTracer, MatchFlagsAgreeWithQuery) {
  auto cfg = traced_config();
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto q = RangeQuery::any(2).with(1, 40, std::nullopt);
  auto out = grid.run_query(grid.random_node(), q);
  const auto* t = grid.tracer()->find(out.id);
  ASSERT_NE(t, nullptr);
  for (const auto& [node, matched] : t->visited)
    EXPECT_EQ(matched, q.matches(grid.node(node).values())) << node;
}

TEST(QueryTracer, RenderContainsAllNodes) {
  auto cfg = traced_config(60);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto out = grid.run_query(grid.random_node(), RangeQuery::any(2).with(0, 0, 39));
  std::string art = grid.tracer()->render(out.id);
  const auto* t = grid.tracer()->find(out.id);
  for (const auto& e : t->edges)
    EXPECT_NE(art.find("-> " + std::to_string(e.to)), std::string::npos);
  EXPECT_NE(art.find("completed with"), std::string::npos);
}

TEST(QueryTracer, RenderUnknownQuery) {
  QueryTracer tracer;
  EXPECT_EQ(tracer.render(12345), "(no trace)");
}

TEST(QueryTracer, ChainsToWrappedObserver) {
  QueryStats stats;
  QueryTracer tracer(&stats.sink(0));
  tracer.on_query_visited(1, 10, true, true);
  tracer.on_query_forwarded(1, 10, 11, 3, 0);
  tracer.on_query_visited(1, 11, false, false);
  tracer.on_query_completed(1, 10, {});
  EXPECT_NE(stats.find(1), nullptr);
  EXPECT_EQ(stats.find(1)->hits, 1u);
  EXPECT_EQ(stats.find(1)->overhead, 1u);
  EXPECT_TRUE(stats.find(1)->completed);
  EXPECT_NE(tracer.find(1), nullptr);
}

TEST(QueryTracer, ClearDropsTraces) {
  QueryTracer tracer;
  tracer.on_query_visited(1, 10, true, true);
  tracer.clear();
  EXPECT_EQ(tracer.find(1), nullptr);
}

}  // namespace
}  // namespace ares
