/// Barrier-determinism regression test for the sharded simulator
/// (sim/simulator.h): a fig06-style mini-run must be byte-identical at any
/// shard count. This is the in-process mirror of the CI bench-smoke diff
/// (ARES_SHARDS=1,2,8 BENCH_fig06 outputs compared byte-for-byte), the same
/// contract tests/exp/determinism_test.cpp proves for worker threads.
///
/// Why it holds (DESIGN.md §8): every event carries a
/// shard-count-independent key (time, (src << 32) | per-src-counter), the
/// per-message latency draw is a pure function of (seed, key, dst), and
/// cross-shard sends land beyond the lookahead-window barrier — so each
/// node's delivery history is the same total order no matter how nodes are
/// spread over shard workers.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/sorted.h"
#include "exp/experiment.h"
#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config mini_config(std::uint32_t shards, bool gossip, const char* latency) {
  Grid::Config cfg{.space = AttributeSpace::uniform(3, 3, 0, 80)};
  cfg.nodes = 400;
  cfg.oracle = !gossip;
  cfg.convergence = gossip ? 120 * kSecond : 0;
  cfg.latency = latency;
  cfg.seed = 4242;
  cfg.protocol.gossip_enabled = gossip;
  cfg.shards = shards;
  return cfg;
}

/// Runs the mini sweep and serializes every observable outcome — per-query
/// match sets, completion latencies, traffic counters, executed-event
/// counts, every QueryStats row — into one string. Byte-equality of these
/// strings is the determinism contract.
std::string run_serialized(std::uint32_t shards, bool gossip,
                           const char* latency = "wan") {
  Grid::Config cfg = mini_config(shards, gossip, latency);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));

  std::vector<RangeQuery> queries;
  queries.push_back(RangeQuery::any(3).with(0, 30, std::nullopt));
  queries.push_back(RangeQuery::any(3).with(1, 10, 60).with(2, 0, 50));
  queries.push_back(RangeQuery::any(3).with(0, 0, 25).with(1, 0, 40));

  std::ostringstream out;
  auto ids = grid.node_ids();
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    NodeId origin = ids[(qi * 131) % ids.size()];
    auto r = grid.run_query(origin, queries[qi], /*sigma=*/15,
                            /*horizon=*/60 * kSecond);
    out << "q" << qi << " completed=" << r.completed << " latency=" << r.latency
        << " matches=";
    for (const auto& m : r.matches) out << m.id << ",";
    out << "\n";
  }
  out << "executed=" << grid.sim().executed_events()
      << " late=" << grid.sim().late_events() << "\n";
  auto& stats = grid.net().stats();
  out << "sent=" << stats.sent() << " delivered=" << stats.delivered()
      << " dropped=" << stats.dropped() << "\n";
  for (const auto& [type, c] : stats.sent_by_type())
    out << type << "=" << c.count << ":" << c.bytes << "\n";
  // Query accounting, folded from the per-shard QueryStats sinks
  // (track_visited is on, so the visited sets are exact).
  for (const auto& [qid, pq] : grid.stats().per_query()) {
    out << "row " << qid << " origin=" << pq.origin << " overhead=" << pq.overhead
        << " hits=" << pq.hits << " dup=" << pq.duplicates << " fwd=" << pq.forwards
        << " done=" << pq.completed << " size=" << pq.result_size << " visited=";
    for (NodeId n : sorted_elements(pq.visited)) out << n << ",";
    out << " matched=";
    for (NodeId n : sorted_elements(pq.matched_visited)) out << n << ",";
    out << "\n";
  }
  out << "mean_overhead=" << grid.stats().mean_overhead() << "\n";
  return out.str();
}

TEST(ShardedDeterminism, OracleRunByteIdenticalAtShards128) {
  const std::string one = run_serialized(1, /*gossip=*/false);
  ASSERT_NE(one.find("completed=1"), std::string::npos);
  EXPECT_EQ(one, run_serialized(2, /*gossip=*/false));
  EXPECT_EQ(one, run_serialized(8, /*gossip=*/false));
}

TEST(ShardedDeterminism, GossipRunByteIdenticalAtShards128) {
  // Gossip mode exercises the multi-shard worker pool for real: every
  // 10-second cycle has hundreds of concurrently drained exchanges, so this
  // is also the TSan target for the barrier/mailbox seam.
  const std::string one = run_serialized(1, /*gossip=*/true);
  EXPECT_EQ(one, run_serialized(2, /*gossip=*/true));
  EXPECT_EQ(one, run_serialized(8, /*gossip=*/true));
}

TEST(ShardedDeterminism, PlanetlabRunByteIdenticalAtShards128) {
  // Per-pair PlanetLab latencies are sampled concurrently by the shard
  // workers of every gossip cycle.
  const std::string one = run_serialized(1, /*gossip=*/true, "planetlab");
  ASSERT_NE(one.find("completed=1"), std::string::npos);
  EXPECT_EQ(one, run_serialized(2, /*gossip=*/true, "planetlab"));
  EXPECT_EQ(one, run_serialized(8, /*gossip=*/true, "planetlab"));
}

TEST(ShardedDeterminism, NoLateEventsUnderSharding) {
  const std::string s = run_serialized(8, /*gossip=*/false);
  EXPECT_NE(s.find("late=0"), std::string::npos) << s;
}

}  // namespace
}  // namespace ares
