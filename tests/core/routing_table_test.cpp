#include "core/routing_table.h"

#include <gtest/gtest.h>

#include "core/selection_node.h"
#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

class RoutingTableTest : public ::testing::Test {
 protected:
  RoutingTableTest()
      : space(AttributeSpace::uniform(2, 3, 0, 80)),
        cells(space),
        store(space),
        self(PeerDescriptor{1, {5, 5}}),
        self_coord(space.coord_of(self.values)),
        rt(cells, registered(store, self), cfg, store) {}

  PeerDescriptor make(NodeId id, AttrValue x, AttrValue y, std::uint32_t age = 0) {
    return PeerDescriptor{id, {x, y}, age};
  }

  /// Registers the owner's row, which the table reads its own cell from.
  static NodeId registered(DescriptorStore& store, const PeerDescriptor& d) {
    store.put(d.id, d.values);
    return d.id;
  }

  AttributeSpace space;
  Cells cells;
  DescriptorStore store;
  PeerDescriptor self;
  CellCoord self_coord;
  const RoutingConfig cfg{};
  RoutingTable rt;
};

TEST_F(RoutingTableTest, ZeroCellPlacement) {
  rt.offer(make(2, 6, 6));  // same level-0 cell (0,0)
  ASSERT_EQ(rt.zero().size(), 1u);
  EXPECT_EQ(rt.zero()[0].id, 2u);
  EXPECT_EQ(rt.link_count(), 1u);
}

TEST_F(RoutingTableTest, SlotPlacementMatchesClassification) {
  PeerDescriptor far = make(3, 75, 5);  // other half along dim 0 => N(3,0)
  rt.offer(far);
  auto slot = cells.classify(self_coord, space.coord_of(far.values));
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->level, 3);
  EXPECT_EQ(slot->dim, 0);
  ASSERT_NE(rt.neighbor(3, 0), nullptr);
  EXPECT_EQ(rt.neighbor(3, 0)->id, 3u);
  EXPECT_EQ(rt.neighbor(3, 1), nullptr);
}

TEST_F(RoutingTableTest, SelfIgnored) {
  rt.offer(self);
  EXPECT_EQ(rt.link_count(), 0u);
}

TEST_F(RoutingTableTest, SlotCapacityKeepsYoungest) {
  rt.offer(make(2, 75, 5, 5));
  rt.offer(make(3, 76, 5, 1));
  rt.offer(make(4, 77, 5, 3));
  rt.offer(make(5, 78, 5, 2));  // capacity 3: age-5 entry must fall out
  const auto& s = rt.slot(3, 0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].id, 3u);  // youngest first
  for (const auto& e : s) EXPECT_NE(e.id, 2u);
}

TEST_F(RoutingTableTest, OfferRefreshesAge) {
  rt.offer(make(2, 75, 5, 8));
  rt.offer(make(2, 75, 5, 1));
  EXPECT_EQ(rt.slot(3, 0).size(), 1u);
  EXPECT_EQ(rt.slot(3, 0)[0].age, 1u);
}

TEST_F(RoutingTableTest, AlternateSkipsExcluded) {
  rt.offer(make(2, 75, 5, 0));
  rt.offer(make(3, 76, 5, 1));
  const CompactPeer* alt = rt.alternate(3, 0, {2});
  ASSERT_NE(alt, nullptr);
  EXPECT_EQ(alt->id, 3u);
  EXPECT_EQ(rt.alternate(3, 0, {2, 3}), nullptr);
}

TEST_F(RoutingTableTest, RemovePurgesEverywhere) {
  rt.offer(make(2, 6, 6));
  rt.offer(make(2, 6, 6));
  rt.offer(make(3, 75, 5));
  rt.remove(3);
  EXPECT_EQ(rt.neighbor(3, 0), nullptr);
  rt.remove(2);
  EXPECT_TRUE(rt.zero().empty());
}

TEST_F(RoutingTableTest, AgingAndPurge) {
  rt.offer(make(2, 75, 5, 0));
  for (int i = 0; i < 5; ++i) rt.age_all();
  EXPECT_EQ(rt.slot(3, 0)[0].age, 5u);
  rt.drop_older_than(4);
  EXPECT_EQ(rt.neighbor(3, 0), nullptr);
}

TEST_F(RoutingTableTest, LinkCountsDedupe) {
  rt.offer(make(2, 6, 6));
  rt.offer(make(3, 75, 5));
  rt.offer(make(4, 76, 6));  // same slot as 3 (backup)
  EXPECT_EQ(rt.link_count(), 3u);
  EXPECT_EQ(rt.primary_link_count(), 2u);  // zero member + one slot primary
  EXPECT_EQ(rt.populated_slots(), 1u);
}

TEST_F(RoutingTableTest, ZeroCapacityCap) {
  RoutingConfig capped_cfg;
  capped_cfg.zero_capacity = 2;
  RoutingTable capped(cells, self.id, capped_cfg, store);
  capped.offer(make(2, 6, 6, 3));
  capped.offer(make(3, 6, 7, 1));
  capped.offer(make(4, 7, 6, 2));
  EXPECT_EQ(capped.zero().size(), 2u);
  EXPECT_EQ(capped.zero()[0].id, 3u);  // youngest retained
}

TEST_F(RoutingTableTest, ClearEmptiesEverything) {
  rt.offer(make(2, 6, 6));
  rt.offer(make(3, 75, 5));
  rt.clear();
  EXPECT_EQ(rt.link_count(), 0u);
  EXPECT_EQ(rt.populated_slots(), 0u);
}

TEST_F(RoutingTableTest, BestForRegionPrefersInsideCandidate) {
  // Slot N(3,0): two candidates, only the second lies in the target region.
  rt.offer(make(2, 45, 5, 0));   // younger, outside target
  rt.offer(make(3, 75, 75, 5));  // older, inside target
  Region target({{7, 7}, {7, 7}});
  const CompactPeer* best = rt.best_for_region(3, 0, {}, target);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->id, 3u);
}

TEST_F(RoutingTableTest, BestForRegionFallsBackToYoungest) {
  rt.offer(make(2, 45, 5, 1));
  rt.offer(make(3, 46, 5, 0));
  Region target({{7, 7}, {7, 7}});  // nobody inside
  const CompactPeer* best = rt.best_for_region(3, 0, {}, target);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->id, 3u);  // youngest
}

TEST_F(RoutingTableTest, BestForRegionHonorsExclusions) {
  rt.offer(make(2, 75, 75, 0));
  Region target({{7, 7}, {7, 7}});
  EXPECT_EQ(rt.best_for_region(3, 0, {2}, target), nullptr);
}

TEST_F(RoutingTableTest, AllSlotsAddressable) {
  // Exercise every (level, dim) accessor of a 2-dim, 3-level table.
  for (int l = 1; l <= 3; ++l)
    for (int k = 0; k < 2; ++k) EXPECT_EQ(rt.neighbor(l, k), nullptr);
}

}  // namespace

/// The table refreshed through live gossip on the loopback runtime: two
/// SelectionNodes (full protocol stack, gossip on) discover each other and
/// install the N(l,k) links — no Simulator/Network pair involved.
TEST_F(RoutingTableTest, GossipOverLoopbackPopulatesSlots) {
  const ProtocolConfig proto{};  // gossip on, 10 s period; outlives the nodes
  LoopbackRuntime loop(11);
  Rng seeder(5);

  NodeId a = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{5, 5}, proto, std::vector<PeerDescriptor>{}, seeder.fork()));
  // B lands in the opposite half along dimension 0 => slot N(3,0) of A.
  NodeId b = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{75, 5}, proto,
      std::vector<PeerDescriptor>{PeerDescriptor{a, {5, 5}}},
      seeder.fork()));

  loop.run_until(120 * kSecond);  // ~12 gossip cycles

  // B knew A from bootstrap; A must have learned B purely through gossip.
  auto& art = loop.find_as<SelectionNode>(a)->routing();
  auto& brt = loop.find_as<SelectionNode>(b)->routing();
  ASSERT_NE(art.neighbor(3, 0), nullptr);
  EXPECT_EQ(art.neighbor(3, 0)->id, b);
  ASSERT_NE(brt.neighbor(3, 0), nullptr);
  EXPECT_EQ(brt.neighbor(3, 0)->id, a);
  // The gossip seam metered the cycles per node.
  EXPECT_GE(loop.metrics().node_value(a, "gossip.cycles"), 10u);
}

/// Aging keeps running on the loopback runtime: once the partner crashes,
/// its entry must wash out of the routing table within rt_max_age cycles.
TEST_F(RoutingTableTest, DeadPeerAgesOutOverLoopback) {
  ProtocolConfig proto;  // outlives the nodes
  proto.rt_max_age = 5;
  proto.vicinity.max_age = 5;
  LoopbackRuntime loop(13);
  Rng seeder(5);

  NodeId a = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{5, 5}, proto, std::vector<PeerDescriptor>{}, seeder.fork()));
  NodeId b = loop.add_node(std::make_unique<SelectionNode>(
      space, store, Point{75, 5}, proto,
      std::vector<PeerDescriptor>{PeerDescriptor{a, {5, 5}}},
      seeder.fork()));
  loop.run_until(60 * kSecond);
  auto& art = loop.find_as<SelectionNode>(a)->routing();
  ASSERT_NE(art.neighbor(3, 0), nullptr);

  loop.remove_node(b, false);
  loop.advance(200 * kSecond);  // >> rt_max_age cycles
  EXPECT_EQ(art.neighbor(3, 0), nullptr);
}

}  // namespace ares
