#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/trace.h"
#include "exp/grid.h"
#include "exp/load.h"
#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config recovery_config(bool timeouts, std::size_t n = 300) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 11;
  cfg.protocol.gossip_enabled = false;
  if (timeouts) {
    cfg.protocol.query_timeout = 2 * kSecond;
    cfg.protocol.retry_alternates = true;
  }
  // Plenty of backups so alternates exist after a primary dies.
  cfg.protocol.routing.slot_capacity = 4;
  cfg.oracle_options.per_slot = 4;
  return cfg;
}

/// Kills `count` random nodes without telling anyone (routing tables go
/// stale), sparing `spare`.
std::vector<NodeId> silent_kill(Grid& grid, std::size_t count, NodeId spare) {
  std::vector<NodeId> victims;
  auto ids = grid.node_ids();
  Rng rng(123);
  rng.shuffle(ids);
  for (NodeId id : ids) {
    if (victims.size() >= count) break;
    if (id == spare) continue;
    victims.push_back(id);
    grid.remove_node(id, false);
  }
  return victims;
}

TEST(TimeoutRecovery, QueryCompletesDespiteDeadLinks) {
  auto cfg = recovery_config(/*timeouts=*/true);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId origin = grid.random_node();
  silent_kill(grid, 30, origin);
  auto q = RangeQuery::any(2).with(0, 20, 70);
  auto out = grid.run_query(origin, q, kNoSigma, 300 * kSecond);
  EXPECT_TRUE(out.completed);
  // Every reported match must still be alive and really match.
  for (const auto& m : out.matches) {
    EXPECT_TRUE(grid.net().alive(m.id));
    EXPECT_TRUE(q.matches(m.values));
  }
}

TEST(TimeoutRecovery, AlternateNeighborsRecoverBranches) {
  auto cfg = recovery_config(true);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId origin = grid.random_node();
  // Kill a modest set so most subcells still have live backups.
  silent_kill(grid, 15, origin);
  auto q = RangeQuery::any(2);
  auto truth = grid.ground_truth(q).size();
  auto out = grid.run_query(origin, q, kNoSigma, 300 * kSecond);
  ASSERT_TRUE(out.completed);
  // With 4 backups per slot, recovery should reach nearly every live match.
  EXPECT_GT(static_cast<double>(out.matches.size()), 0.9 * static_cast<double>(truth));
}

TEST(TimeoutRecovery, TimeoutPurgesDeadNeighborFromRoutingTable) {
  // Every branch forwarded to a dead peer times out, and on_timeout purges
  // that peer from all of the forwarder's state, so later queries do not
  // stumble over the same dead link.
  auto cfg = recovery_config(true, 100);
  cfg.trace_queries = true;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId origin = grid.random_node();
  silent_kill(grid, 10, origin);
  const auto out = grid.run_query(origin, RangeQuery::any(2), kNoSigma, 300 * kSecond);
  ASSERT_TRUE(out.completed);

  const QueryTracer::Trace* trace = grid.tracer()->find(out.id);
  ASSERT_NE(trace, nullptr);
  std::size_t dead_edges = 0;
  for (const QueryTracer::Edge& e : trace->edges) {
    if (grid.net().alive(e.to)) continue;
    ++dead_edges;
    const SelectionNode& from = grid.node(e.from);
    const RoutingTable& rt = from.routing();
    for (const CompactPeer& z : rt.zero()) EXPECT_NE(z.id, e.to) << "zero list of " << e.from;
    for (int l = 1; l <= rt.levels(); ++l)
      for (int k = 0; k < rt.dims(); ++k)
        for (const CompactPeer& p : rt.slot(l, k))
          EXPECT_NE(p.id, e.to) << "slot N(" << l << "," << k << ") of " << e.from;
    EXPECT_FALSE(from.cyclon().view().contains(e.to)) << "CYCLON view of " << e.from;
    EXPECT_FALSE(from.vicinity().view().contains(e.to)) << "Vicinity view of " << e.from;
  }
  EXPECT_GT(dead_edges, 0u) << "no branch reached a dead peer: nothing was checked";
}

TEST(DropMode, DeadBranchLosesSubtreeButNothingCrashes) {
  auto cfg = recovery_config(/*timeouts=*/false);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId origin = grid.random_node();
  silent_kill(grid, 60, origin);
  auto q = RangeQuery::any(2);
  auto truth = grid.ground_truth(q).size();
  grid.submit(origin, q);
  grid.sim().run_until(grid.sim().now() + 120 * kSecond);
  // Deliveries happened (partial coverage), but without timeouts the query
  // may never complete.
  const auto& pqs = grid.stats().per_query();
  ASSERT_EQ(pqs.size(), 1u);
  const auto& pq = pqs.begin()->second;
  EXPECT_GT(pq.hits, 0u);
  EXPECT_LE(pq.hits, truth);
  EXPECT_EQ(pq.duplicates, 0u);  // drop mode never retransmits
}

TEST(DropMode, CleanNetworkStillCompletes) {
  auto cfg = recovery_config(false);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto out = grid.run_query(grid.random_node(), RangeQuery::any(2).with(0, 0, 49));
  EXPECT_TRUE(out.completed);
}

TEST(TimeoutRecovery, ConcurrentQueriesKeepTimersSeparate) {
  // Regression guard for the sequence-stamped retransmission timers: with
  // many queries in flight at once, node X can have query A and query B both
  // waiting on the same neighbor, and A's retry can re-dispatch while B's
  // original timer is still pending. A timer may only fire for the exact
  // dispatch that armed it (same query, peer, AND sequence number) — a
  // cross-cancelled or double-fired timer strands a branch, and the query
  // below it never completes.
  auto cfg = recovery_config(/*timeouts=*/true);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  silent_kill(grid, 25, grid.random_node());
  // Origins picked after the kills: random_node only returns live nodes.
  std::vector<NodeId> origins;
  for (int i = 0; i < 4; ++i) origins.push_back(grid.random_node());
  OpenLoopConfig lc;
  lc.rate_qps = 300;  // heavy overlap: dozens in flight at once
  lc.total_queries = 60;
  lc.pool = {RangeQuery::any(2), RangeQuery::any(2).with(0, 20, 70)};
  lc.origins = origins;
  lc.seed = 31;
  lc.keep_results = true;
  auto out = run_open_loop(grid, lc);
  EXPECT_GE(out.peak_in_flight, 8u) << "load too light to overlap timers";
  EXPECT_EQ(out.completed, out.issued);
  for (std::size_t i = 0; i < out.issued; ++i) {
    ASSERT_NE(out.done[i], 0) << "arrival " << i << " never completed";
    for (const auto& m : out.results[i]) {
      EXPECT_TRUE(grid.net().alive(m.id));
      EXPECT_TRUE(lc.pool[out.pool_index[i]].matches(m.values));
    }
  }
}

/// recovery_config with coalescing and the result cache on: concurrent
/// branches into one subcell ride one shared traversal, which must be kept
/// alive, timed out, purged and retried like any other branch.
Grid::Config shared_recovery_config(bool retry) {
  auto cfg = recovery_config(/*timeouts=*/true);
  cfg.protocol.retry_alternates = retry;
  cfg.protocol.coalesce_queries = true;
  cfg.protocol.result_cache_capacity = 64;
  return cfg;
}

/// The overlapping open-loop burst of ConcurrentQueriesKeepTimersSeparate.
OpenLoopConfig shared_burst(Grid& grid) {
  OpenLoopConfig lc;
  lc.rate_qps = 300;
  lc.total_queries = 60;
  lc.pool = {RangeQuery::any(2), RangeQuery::any(2).with(0, 20, 70)};
  for (int i = 0; i < 4; ++i) lc.origins.push_back(grid.random_node());
  lc.seed = 31;
  lc.keep_results = true;
  return lc;
}

/// Every arrival completed, with live records that match its shape, and no
/// shared traversal is left open anywhere.
void expect_burst_resolved(Grid& grid, const OpenLoopConfig& lc,
                           const OpenLoopResult& out) {
  EXPECT_EQ(out.completed, out.issued);
  for (std::size_t i = 0; i < out.issued; ++i) {
    ASSERT_NE(out.done[i], 0) << "arrival " << i << " never completed";
    for (const auto& m : out.results[i]) {
      EXPECT_TRUE(grid.net().alive(m.id));
      EXPECT_TRUE(lc.pool[out.pool_index[i]].matches(m.values));
    }
  }
  EXPECT_GT(grid.net().metrics().total("query.coalesce_attach"), 0u)
      << "burst never coalesced: test lost its teeth";
  for (NodeId id : grid.node_ids()) EXPECT_EQ(grid.node(id).shared_branches(), 0u);
}

std::vector<NodeId> sorted_ids(const std::vector<MatchRecord>& ms) {
  std::vector<NodeId> ids;
  for (const auto& m : ms) ids.push_back(m.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SharedTraversalFaults, BurstThroughDeadNodesRetriesAlternates) {
  auto cfg = shared_recovery_config(/*retry=*/true);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  silent_kill(grid, 25, grid.random_node());
  const auto lc = shared_burst(grid);
  const auto out = run_open_loop(grid, lc);
  expect_burst_resolved(grid, lc, out);
  EXPECT_GT(grid.net().metrics().total("query.timeouts"), 0u);
  EXPECT_GT(grid.net().metrics().total("query.retries"), 0u);
}

TEST(SharedTraversalFaults, DeadBranchWithoutRetryResolvesRidersUncached) {
  auto cfg = shared_recovery_config(/*retry=*/false);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  const auto victims = silent_kill(grid, 25, grid.random_node());
  const auto lc = shared_burst(grid);
  const auto out = run_open_loop(grid, lc);
  expect_burst_resolved(grid, lc, out);
  EXPECT_GT(grid.net().metrics().total("query.timeouts"), 0u);
  EXPECT_EQ(grid.net().metrics().total("query.retries"), 0u);
  // Nothing a dead branch returned was cached: once every table forgets the
  // dead nodes, each shape asked again at the same portals (the same cache
  // keys) is answered exactly.
  for (NodeId id : grid.node_ids())
    for (NodeId v : victims) grid.node(id).routing().remove(v);
  for (NodeId origin : lc.origins)
    for (const auto& q : lc.pool) {
      auto again = grid.run_query(origin, q, kNoSigma, 300 * kSecond);
      ASSERT_TRUE(again.completed);
      EXPECT_EQ(sorted_ids(again.matches), grid.ground_truth(q));
    }
}

TEST(SharedTraversalFaults, KeepalivesReachTheRoot) {
  // T(q) far below a shared subtree's latency and nobody dead: the root of
  // each shared traversal hears its child's keepalives, so nothing times out.
  // T(q) still exceeds a LAN round trip (at most 1 ms) plus the keepalive
  // period T(q)/2. No cache, so every query walks its whole tree.
  auto cfg = shared_recovery_config(/*retry=*/true);
  cfg.protocol.query_timeout = 3 * kMillisecond;
  cfg.protocol.result_cache_capacity = 0;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  const auto lc = shared_burst(grid);
  const auto out = run_open_loop(grid, lc);
  expect_burst_resolved(grid, lc, out);
  EXPECT_GT(out.p50_latency_s, 5 * 0.003) << "subtrees too fast to need keepalives";
  EXPECT_EQ(grid.net().metrics().total("query.timeouts"), 0u);
  for (std::size_t i = 0; i < out.issued; ++i)
    EXPECT_EQ(sorted_ids(out.results[i]), grid.ground_truth(lc.pool[out.pool_index[i]]))
        << "arrival " << i;
}

TEST(TimeoutRecovery, SigmaQueriesUnaffectedByFarFailures) {
  auto cfg = recovery_config(true);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  NodeId origin = grid.random_node();
  silent_kill(grid, 30, origin);
  auto out = grid.run_query(origin, RangeQuery::any(2), /*sigma=*/5, 300 * kSecond);
  ASSERT_TRUE(out.completed);
  EXPECT_GE(out.matches.size(), 5u);
}

}  // namespace
}  // namespace ares
