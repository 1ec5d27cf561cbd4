/// Correctness properties of the high-throughput serving fast path: result
/// caching must never change what a query returns in a static deployment
/// (cache on == cache off == ground truth), staleness under churn must be
/// bounded to liveness (never wrong values) and metered, and coalescing
/// concurrent queries into shared traversals must be invisible in results.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "exp/load.h"
#include "workload/churn_schedule.h"
#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config serving_config(std::size_t n, std::uint64_t seed) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = seed;
  cfg.protocol.gossip_enabled = false;
  return cfg;
}

std::vector<RangeQuery> serving_pool() {
  return {
      RangeQuery::any(2).with(0, 20, 70),
      RangeQuery::any(2).with(0, 5, 44).with(1, 30, std::nullopt),
      RangeQuery::any(2).with(1, std::nullopt, 61),
      RangeQuery::any(2),
  };
}

std::vector<NodeId> sorted_ids(const std::vector<MatchRecord>& ms) {
  std::vector<NodeId> ids;
  ids.reserve(ms.size());
  for (const auto& m : ms) ids.push_back(m.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ResultCacheProperty, StaticDeploymentMatchesGroundTruthExactly) {
  auto cfg = serving_config(300, 7);
  cfg.protocol.result_cache_capacity = 64;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto pool = serving_pool();
  // Three passes over the pool from rotating origins: later passes are
  // served substantially from caches populated by earlier ones.
  for (int pass = 0; pass < 3; ++pass) {
    for (const auto& q : pool) {
      auto out = grid.run_query(grid.random_node(), q, kNoSigma, 300 * kSecond);
      ASSERT_TRUE(out.completed);
      EXPECT_EQ(sorted_ids(out.matches), grid.ground_truth(q))
          << "pass " << pass << ": cached fragments changed a result";
    }
  }
  const Metrics& metrics = grid.net().metrics();
  EXPECT_GT(metrics.total("query.cache_insert"), 0u);
  EXPECT_GT(metrics.total("query.cache_hit"), 0u) << "repeat passes never hit the cache";
  // Static network, gossip disabled: staleness machinery must stay silent.
  EXPECT_EQ(metrics.total("query.cache_stale"), 0u);
}

TEST(ResultCacheProperty, CacheOnAndOffReturnIdenticalResults) {
  auto pool = serving_pool();
  std::vector<std::vector<NodeId>> with, without;
  for (bool cached : {false, true}) {
    auto cfg = serving_config(250, 21);
    cfg.protocol.result_cache_capacity = cached ? 64 : 0;
    Grid grid(cfg, uniform_points(cfg.space, 0, 80));
    auto& results = cached ? with : without;
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& q : pool) {
        auto out = grid.run_query(grid.random_node(), q, kNoSigma, 300 * kSecond);
        ASSERT_TRUE(out.completed);
        results.push_back(sorted_ids(out.matches));
      }
  }
  EXPECT_EQ(with, without);
}

TEST(ResultCacheProperty, SigmaCutoffFragmentsAreNeverCached) {
  // A sigma-truncated traversal abandons subtrees; its replies must not
  // poison the cache for later exhaustive queries.
  auto cfg = serving_config(300, 13);
  cfg.protocol.result_cache_capacity = 64;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto q = RangeQuery::any(2).with(0, 10, 75);
  auto sigma_out = grid.run_query(grid.random_node(), q, /*sigma=*/3, 300 * kSecond);
  ASSERT_TRUE(sigma_out.completed);
  EXPECT_GE(sigma_out.matches.size(), 3u);
  auto out = grid.run_query(grid.random_node(), q, kNoSigma, 300 * kSecond);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(sorted_ids(out.matches), grid.ground_truth(q));
}

TEST(ResultCacheProperty, DynamicFiltersBypassTheCache) {
  auto cfg = serving_config(250, 5);
  cfg.protocol.result_cache_capacity = 64;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  // Warm caches with the static shape, then add a dynamic filter: the
  // filtered query must be evaluated live, not from cached fragments.
  auto base = RangeQuery::any(2).with(0, 10, 70);
  grid.run_query(grid.random_node(), base, kNoSigma, 300 * kSecond);
  auto filtered = base;
  filtered.with_dynamic(1, 20, 50);
  auto out = grid.run_query(grid.random_node(), filtered, kNoSigma, 300 * kSecond);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(sorted_ids(out.matches), grid.ground_truth(filtered));
}

TEST(ResultCacheProperty, ChurnStalenessIsBoundedToLivenessAndMetered) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = 200;
  cfg.oracle = false;
  cfg.convergence = 600 * kSecond;
  cfg.latency = "lan";
  cfg.seed = 44;
  cfg.protocol.gossip_enabled = true;
  cfg.bootstrap_contacts = 3;
  cfg.protocol.query_timeout = 5 * kSecond;
  cfg.protocol.retry_alternates = true;
  cfg.protocol.result_cache_capacity = 64;
  cfg.protocol.result_cache_horizon = 2;  // tight horizon: ages must drop
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  ChurnDriver churn(grid.net(), grid.churn_factory());
  churn.start_replacement_churn(kChurnGnutella.fraction, kChurnGnutella.period);
  auto pool = serving_pool();
  // Probes live for the whole test (deque: stable addresses), so a query
  // that outlives one pass — or whose origin is churned away — can still
  // complete safely during a later pass instead of writing to a dead frame.
  struct Probe {
    RangeQuery q;
    bool completed = false;
    std::vector<MatchRecord> matches;
    std::set<NodeId> truth_at_done;  // fresh ground truth at completion time
    std::set<NodeId> alive_at_done;
  };
  std::deque<Probe> probes;
  for (int pass = 0; pass < 6; ++pass) {
    for (const auto& q : pool) {
      Probe* p = &probes.emplace_back();
      p->q = q;
      grid.node(grid.random_node())
          .submit(q, kNoSigma, [p, &grid](const std::vector<MatchRecord>& m) {
            p->completed = true;
            p->matches = m;
            for (NodeId id : grid.ground_truth(p->q)) p->truth_at_done.insert(id);
            for (const auto& mm : m)
              if (grid.net().alive(mm.id)) p->alive_at_done.insert(mm.id);
          });
      grid.sim().run_until(grid.sim().now() + 30 * kSecond);
    }
  }
  grid.sim().run_until(grid.sim().now() + 300 * kSecond);  // drain
  churn.stop();
  std::size_t completed = 0;
  for (const auto& p : probes) {
    if (!p.completed) continue;  // origin churned away or still stranded
    ++completed;
    for (const auto& m : p.matches) {
      // The bounded-staleness contract: a cached record can be stale about
      // LIVENESS (the node has since left), never about VALUES — fresh
      // ground truth excludes a returned node only if that node is gone.
      EXPECT_TRUE(p.q.matches(m.values));
      if (!p.truth_at_done.contains(m.id)) {
        EXPECT_FALSE(p.alive_at_done.contains(m.id));
      }
    }
  }
  EXPECT_GT(completed, pool.size());
  const Metrics& metrics = grid.net().metrics();
  EXPECT_GT(metrics.total("query.cache_insert"), 0u);
  // Metered, never silent: with gossip on and a 2-cycle horizon, entries
  // must have been aged out during the run.
  EXPECT_GT(metrics.total("query.cache_stale"), 0u);
}

TEST(CoalesceProperty, SharedTraversalsAreInvisibleInResults) {
  // The same open-loop burst (identical schedule, shapes, origins) against
  // two identically-seeded grids, coalescing off vs on: every arrival must
  // produce the identical result set, and the on-grid must actually have
  // attached riders to shared traversals.
  auto run = [](bool coalesce) {
    auto cfg = serving_config(300, 17);
    cfg.protocol.coalesce_queries = coalesce;
    Grid grid(cfg, uniform_points(cfg.space, 0, 80));
    OpenLoopConfig lc;
    lc.rate_qps = 400;
    lc.total_queries = 120;
    lc.pool = serving_pool();
    lc.seed = 99;
    lc.keep_results = true;
    for (int i = 0; i < 8; ++i) lc.origins.push_back(grid.random_node());
    auto out = run_open_loop(grid, lc);
    EXPECT_EQ(out.completed, out.issued);
    std::uint64_t attached = grid.net().metrics().total("query.coalesce_attach");
    return std::pair{std::move(out), attached};
  };
  auto [off, off_attached] = run(false);
  auto [on, on_attached] = run(true);
  EXPECT_EQ(off_attached, 0u);
  EXPECT_GT(on_attached, 0u) << "burst never coalesced: test lost its teeth";
  ASSERT_EQ(off.results.size(), on.results.size());
  EXPECT_EQ(off.pool_index, on.pool_index);  // same generated schedule
  for (std::size_t i = 0; i < off.results.size(); ++i)
    EXPECT_EQ(sorted_ids(off.results[i]), sorted_ids(on.results[i]))
        << "arrival " << i;
}

TEST(CoalesceProperty, CoalescedResultsMatchGroundTruth) {
  auto cfg = serving_config(300, 23);
  cfg.protocol.coalesce_queries = true;
  cfg.protocol.result_cache_capacity = 64;  // both features together
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  OpenLoopConfig lc;
  lc.rate_qps = 400;
  lc.total_queries = 120;
  lc.pool = serving_pool();
  lc.seed = 7;
  lc.keep_results = true;
  for (int i = 0; i < 8; ++i) lc.origins.push_back(grid.random_node());
  auto out = run_open_loop(grid, lc);
  ASSERT_EQ(out.completed, out.issued);
  std::vector<std::vector<NodeId>> truth;
  for (const auto& q : lc.pool) truth.push_back(grid.ground_truth(q));
  for (std::size_t i = 0; i < out.results.size(); ++i)
    EXPECT_EQ(sorted_ids(out.results[i]), truth[out.pool_index[i]])
        << "arrival " << i;
  // Once every traversal resolved, no shared branch may linger.
  for (NodeId id : grid.node_ids())
    EXPECT_EQ(grid.node(id).shared_branches(), 0u);
}

TEST(CoalesceProperty, LinklessSubcellsKeepSharedFragmentsComplete) {
  // About one node per level-0 cell leaves many subcells empty, so no
  // routing table links them. The plain DFS skips such a subcell and its
  // fragment stays complete. A coalescing branch must skip it too: one
  // query at a time (no rider ever attaches), coalescing on and off then
  // cache exactly the same fragments.
  auto run = [](bool coalesce) {
    auto cfg = serving_config(60, 29);
    cfg.protocol.result_cache_capacity = 64;
    cfg.protocol.coalesce_queries = coalesce;
    Grid grid(cfg, uniform_points(cfg.space, 0, 80));
    std::size_t linkless = 0;
    for (NodeId id : grid.node_ids())
      for (int l = 1; l <= 3; ++l)
        for (int k = 0; k < 2; ++k) linkless += grid.node(id).routing().slot(l, k).empty();
    EXPECT_GT(linkless, 0u) << "grid too dense: test lost its teeth";
    std::vector<std::vector<NodeId>> results;
    for (int pass = 0; pass < 2; ++pass)
      for (const auto& q : serving_pool()) {
        auto out = grid.run_query(grid.random_node(), q, kNoSigma, 300 * kSecond);
        EXPECT_TRUE(out.completed);
        results.push_back(sorted_ids(out.matches));
      }
    return std::pair{std::move(results),
                     grid.net().metrics().total("query.cache_insert")};
  };
  auto [off, off_inserts] = run(false);
  auto [on, on_inserts] = run(true);
  EXPECT_EQ(off, on);
  EXPECT_GT(off_inserts, 0u);
  EXPECT_EQ(on_inserts, off_inserts) << "a linkless subcell spoiled a shared fragment";
}

}  // namespace
}  // namespace ares
