#include "exp/bootstrap.h"

#include <gtest/gtest.h>

#include "exp/grid.h"
#include "workload/distributions.h"

namespace ares {
namespace {

Grid::Config oracle_config(int d, int L, std::size_t n, std::uint64_t seed = 1) {
  Grid::Config cfg{.space = AttributeSpace::uniform(d, L, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = seed;
  cfg.protocol.gossip_enabled = false;
  return cfg;
}

TEST(OracleBootstrap, ZeroListsAreCompleteAndMutual) {
  auto cfg = oracle_config(2, 3, 300);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  Cells cells(grid.space());
  auto ids = grid.node_ids();
  for (NodeId a : ids) {
    for (NodeId b : ids) {
      if (a == b) continue;
      bool cohabit =
          cells.classify(grid.node(a).coord(), grid.node(b).coord())->level == 0;
      bool listed = false;
      for (const auto& e : grid.node(a).routing().zero()) listed |= (e.id == b);
      EXPECT_EQ(cohabit, listed) << a << " vs " << b;
    }
  }
}

TEST(OracleBootstrap, SlotEntriesLieInTheirSubcell) {
  auto cfg = oracle_config(3, 3, 500);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  Cells cells(grid.space());
  for (NodeId id : grid.node_ids()) {
    auto& node = grid.node(id);
    for (int l = 1; l <= 3; ++l) {
      for (int k = 0; k < 3; ++k) {
        for (const auto& e : node.routing().slot(l, k)) {
          EXPECT_TRUE(cells.neighbor_region(node.coord(), l, k).contains(grid.store().coord_of(e.id)))
              << "node " << id << " slot (" << l << "," << k << ")";
        }
      }
    }
  }
}

TEST(OracleBootstrap, PopulatedSubcellsAlwaysLinked) {
  // If any node exists in N(l,k)(X), X must have a neighbor there.
  auto cfg = oracle_config(2, 3, 400);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  Cells cells(grid.space());
  auto ids = grid.node_ids();
  for (NodeId a : ids) {
    auto& node = grid.node(a);
    for (int l = 1; l <= 3; ++l) {
      for (int k = 0; k < 2; ++k) {
        bool populated = false;
        Region region = cells.neighbor_region(node.coord(), l, k);
        for (NodeId b : ids)
          populated = populated || region.contains(grid.node(b).coord());
        EXPECT_EQ(populated, node.routing().neighbor(l, k) != nullptr)
            << "node " << a << " slot (" << l << "," << k << ")";
      }
    }
  }
}

TEST(OracleBootstrap, PerSlotCapRespected) {
  auto cfg = oracle_config(2, 2, 400);
  cfg.oracle_options.per_slot = 2;
  cfg.protocol.routing.slot_capacity = 2;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  for (NodeId id : grid.node_ids()) {
    auto& rt = grid.node(id).routing();
    for (int l = 1; l <= 2; ++l)
      for (int k = 0; k < 2; ++k) EXPECT_LE(rt.slot(l, k).size(), 2u);
  }
}

TEST(OracleBootstrap, RebootstrapAfterMembershipChange) {
  auto cfg = oracle_config(2, 3, 200);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto ids = grid.node_ids();
  for (std::size_t i = 0; i < 50; ++i) grid.remove_node(ids[i]);
  grid.rebootstrap();
  // No routing entry may reference a dead node.
  for (NodeId id : grid.node_ids()) {
    auto& rt = grid.node(id).routing();
    for (const auto& e : rt.zero()) EXPECT_TRUE(grid.net().alive(e.id));
    for (int l = 1; l <= 3; ++l)
      for (int k = 0; k < 2; ++k)
        for (const auto& e : rt.slot(l, k)) EXPECT_TRUE(grid.net().alive(e.id));
  }
}

TEST(OracleBootstrap, HandlesSingleNode) {
  auto cfg = oracle_config(2, 3, 1);
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  auto ids = grid.node_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(grid.node(ids[0]).routing().link_count(), 0u);
}

TEST(OracleBootstrap, HandlesEmptyNetwork) {
  Simulator sim(1);
  Network net(sim, std::make_unique<ConstantLatency>(1));
  auto space = AttributeSpace::uniform(2, 3, 0, 80);
  DescriptorStore store(space);
  oracle_bootstrap(net, store);  // must not crash
  SUCCEED();
}

}  // namespace
}  // namespace ares
