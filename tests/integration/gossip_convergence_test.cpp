/// End-to-end check of §5: with only the two-layer gossip running (no
/// oracle), nodes self-organize into the cell overlay and queries become
/// routable — "this approach for self-organization converges extremely
/// fast".

#include <gtest/gtest.h>

#include "exp/grid.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace ares {
namespace {

Grid::Config gossip_config(std::size_t n, SimTime convergence) {
  Grid::Config cfg{.space = AttributeSpace::uniform(2, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = false;
  cfg.convergence = convergence;
  cfg.latency = "lan";
  cfg.seed = 33;
  cfg.protocol.gossip_enabled = true;
  cfg.bootstrap_contacts = 3;
  return cfg;
}

TEST(GossipConvergence, RoutingTablesPopulate) {
  Grid grid(gossip_config(150, 600 * kSecond), // ~60 gossip cycles
            uniform_points(AttributeSpace::uniform(2, 3, 0, 80), 0, 80));
  Cells cells(grid.space());
  // Count slots that SHOULD be populated (some node exists there) and are.
  std::size_t want = 0, have = 0;
  auto ids = grid.node_ids();
  for (NodeId a : ids) {
    auto& node = grid.node(a);
    for (int l = 1; l <= 3; ++l) {
      for (int k = 0; k < 2; ++k) {
        Region region = cells.neighbor_region(node.coord(), l, k);
        bool populated = false;
        for (NodeId b : ids)
          populated = populated || region.contains(grid.node(b).coord());
        if (!populated) continue;
        ++want;
        if (node.routing().neighbor(l, k) != nullptr) ++have;
      }
    }
  }
  ASSERT_GT(want, 0u);
  EXPECT_GT(static_cast<double>(have) / static_cast<double>(want), 0.95);
}

TEST(GossipConvergence, QueriesDeliverAfterConvergence) {
  Grid grid(gossip_config(150, 600 * kSecond),
            uniform_points(AttributeSpace::uniform(2, 3, 0, 80), 0, 80));
  Rng rng(5);
  double total = 0;
  int n = 0;
  for (int i = 0; i < 6; ++i) {
    auto q = best_case_query(grid.space(), 0.25, rng);
    auto truth = grid.ground_truth(q).size();
    if (truth == 0) continue;
    auto out = grid.run_query(grid.random_node(), q, kNoSigma, 120 * kSecond);
    const auto* pq = grid.stats().find(out.id);
    ASSERT_NE(pq, nullptr);
    total += static_cast<double>(pq->hits) / static_cast<double>(truth);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(total / n, 0.9);
}

TEST(GossipConvergence, LateJoinerIntegrates) {
  Grid grid(gossip_config(100, 400 * kSecond),
            uniform_points(AttributeSpace::uniform(2, 3, 0, 80), 0, 80));
  NodeId joiner = grid.add_node({77, 77});
  grid.sim().run_until(grid.sim().now() + 300 * kSecond);
  // The joiner has built links...
  EXPECT_GT(grid.node(joiner).routing().link_count(), 0u);
  // ...and is discoverable by queries targeting its corner.
  auto q = RangeQuery::any(2).with(0, 75, std::nullopt).with(1, 75, std::nullopt);
  auto out = grid.run_query(grid.random_node(), q, kNoSigma, 120 * kSecond);
  bool found = false;
  for (const auto& m : out.matches) found = found || m.id == joiner;
  EXPECT_TRUE(found);
}

TEST(GossipConvergence, GossipTrafficMatchesPaperEstimate) {
  // §6: two gossip initiations per node per cycle, ~2,560 bytes per node per
  // cycle. Check the order of magnitude over a known number of cycles. The
  // estimate is stated in the paper's plain descriptor-list layout, so add
  // the bytes the delta-coded frames saved against it back in.
  Grid grid(gossip_config(100, 300 * kSecond),
            uniform_points(AttributeSpace::uniform(2, 3, 0, 80), 0, 80));
  const auto& by_type = grid.net().stats().sent_by_type();
  std::uint64_t gossip_msgs = 0;
  std::uint64_t gossip_bytes = grid.net().metrics().total("wire.bytes_delta_saved");
  for (const auto& [name, tc] : by_type) {
    if (name.starts_with("cyclon.") || name.starts_with("vicinity.")) {
      gossip_msgs += tc.count;
      gossip_bytes += tc.bytes;
    }
  }
  // 100 nodes x 30 cycles x ~4 messages (2 initiations + 2 replies).
  EXPECT_GT(gossip_msgs, 100u * 30u * 2u);
  EXPECT_LT(gossip_msgs, 100u * 30u * 6u);
  // Bytes per node per cycle within 4x of the paper's 2,560 B estimate.
  double bpc = static_cast<double>(gossip_bytes) / (100.0 * 30.0);
  EXPECT_GT(bpc, 2560.0 / 4);
  EXPECT_LT(bpc, 2560.0 * 4);
}

}  // namespace
}  // namespace ares
