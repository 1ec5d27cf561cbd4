/// Golden digest of a query-serving burst with the result cache and shared
/// traversals on: every node's query.* counters, the simulator events the
/// burst executed and the select.* traffic, at one and at two shards.
///
/// A refactor of the query state machine promises identical counts: the
/// same cache hits, inserts and evictions, the same riders attached and the
/// same traversals dispatched, over the same messages. Result-set tests
/// cannot see a count move while every answer stays right; this digest can.
/// Re-pinning it has to be a deliberate, explained step.

#include <gtest/gtest.h>

#include <string_view>

#include "common/hashing.h"
#include "exp/grid.h"
#include "exp/load.h"
#include "workload/distributions.h"

namespace ares {
namespace {

std::uint64_t serving_digest(std::uint32_t shards) {
  Grid::Config cfg{.space = AttributeSpace::uniform(3, 3, 0, 80)};
  cfg.nodes = 1500;
  cfg.oracle = true;
  cfg.latency = "wan";
  cfg.seed = 3;
  cfg.shards = shards;
  cfg.track_visited = false;
  cfg.protocol.gossip_enabled = false;
  cfg.protocol.result_cache_capacity = 64;
  cfg.protocol.coalesce_queries = true;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));

  OpenLoopConfig lc;
  lc.rate_qps = 400;
  lc.total_queries = 400;
  lc.seed = 5;
  lc.pool = {RangeQuery::any(3).with(0, 10, 60),
             RangeQuery::any(3).with(0, 10, 60).with(2, 20, std::nullopt),
             RangeQuery::any(3).with(1, std::nullopt, 45),
             RangeQuery::any(3).with(1, 5, 70).with(2, 0, 50)};
  for (int i = 0; i < 8; ++i) lc.origins.push_back(grid.random_node());
  const OpenLoopResult out = run_open_loop(grid, lc);
  EXPECT_EQ(out.completed, out.issued);
  const Metrics& m = grid.net().metrics();
  EXPECT_GT(m.total("query.cache_hit"), 0u);
  EXPECT_GT(m.total("query.coalesce_attach"), 0u);

  std::uint64_t h = hash_mix(kFnvOffset, out.sim_events);
  for (const std::string& name : m.counter_names()) {
    if (!std::string_view(name).starts_with("query.")) continue;
    h = fnv1a(name, h);
    for (const auto& [node, value] : m.by_node(name))
      h = hash_mix(hash_mix(h, node), value);
  }
  for (const auto& [type, c] : grid.net().stats().sent_by_type()) {
    if (!std::string_view(type).starts_with("select.")) continue;
    h = hash_mix(hash_mix(fnv1a(type, h), c.count), c.bytes);
  }
  return h;
}

TEST(ServingDigest, CachedCoalescedBurstAtShards1) {
  EXPECT_EQ(serving_digest(1), 0x55908CD0DB418F2FULL);
}

TEST(ServingDigest, CachedCoalescedBurstAtShards2) {
  EXPECT_EQ(serving_digest(2), 0x55908CD0DB418F2FULL);
}

}  // namespace
}  // namespace ares
