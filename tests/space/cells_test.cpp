#include "space/cells.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"

namespace ares {
namespace {

TEST(Cells, AtLevel) {
  EXPECT_EQ(Cells::at_level(7, 0), 7u);
  EXPECT_EQ(Cells::at_level(7, 1), 3u);
  EXPECT_EQ(Cells::at_level(7, 3), 0u);
}

TEST(Cells, SameCell) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  EXPECT_TRUE(c.same_cell({0, 0}, {1, 1}, 1));
  EXPECT_FALSE(c.same_cell({0, 0}, {2, 0}, 1));
  EXPECT_TRUE(c.same_cell({0, 0}, {2, 0}, 2));
  EXPECT_TRUE(c.same_cell({0, 0}, {7, 7}, 3));  // whole space is one C_3
}

TEST(Cells, CellRegion) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  Region r0 = c.cell_region({5, 2}, 0);
  EXPECT_EQ(r0.interval(0), (IndexInterval{5, 5}));
  EXPECT_EQ(r0.interval(1), (IndexInterval{2, 2}));
  Region r2 = c.cell_region({5, 2}, 2);
  EXPECT_EQ(r2.interval(0), (IndexInterval{4, 7}));
  EXPECT_EQ(r2.interval(1), (IndexInterval{0, 3}));
}

TEST(Cells, NeighborRegionMatchesPaperConstruction) {
  // Figure 1(b) analogue for d=2, max(l)=3, node at coords (0,0):
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  CellCoord a{0, 0};
  // N(3,0): the opposite half of the whole space along dim 0.
  Region n30 = c.neighbor_region(a, 3, 0);
  EXPECT_EQ(n30.interval(0), (IndexInterval{4, 7}));
  EXPECT_EQ(n30.interval(1), (IndexInterval{0, 7}));
  // N(3,1): same half along dim 0, opposite along dim 1.
  Region n31 = c.neighbor_region(a, 3, 1);
  EXPECT_EQ(n31.interval(0), (IndexInterval{0, 3}));
  EXPECT_EQ(n31.interval(1), (IndexInterval{4, 7}));
  // N(1,0): inside C_1 (cells 0..1 per dim), sibling along dim 0.
  Region n10 = c.neighbor_region(a, 1, 0);
  EXPECT_EQ(n10.interval(0), (IndexInterval{1, 1}));
  EXPECT_EQ(n10.interval(1), (IndexInterval{0, 1}));
}

TEST(Cells, NeighborRegionsDisjointFromOwnSubcell) {
  auto s = AttributeSpace::uniform(3, 3, 0, 80);
  Cells c(s);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    CellCoord a{static_cast<CellIndex>(rng.below(8)),
                static_cast<CellIndex>(rng.below(8)),
                static_cast<CellIndex>(rng.below(8))};
    for (int l = 1; l <= 3; ++l) {
      Region own = c.cell_region(a, l - 1);
      for (int k = 0; k < 3; ++k) {
        Region n = c.neighbor_region(a, l, k);
        EXPECT_FALSE(n.intersects(own)) << "l=" << l << " k=" << k;
        EXPECT_FALSE(n.contains(a));
      }
    }
  }
}

TEST(Cells, ClassifySameZeroCell) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  auto slot = c.classify({3, 3}, {3, 3});
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(slot->level, 0);
}

/// Calls `f` on every level-0 cell of the box `r`, in odometer order.
template <typename F>
void for_each_cell(const Region& r, F f) {
  CellCoord c(static_cast<std::size_t>(r.dimensions()));
  for (int j = 0; j < r.dimensions(); ++j)
    c[static_cast<std::size_t>(j)] = r.interval(j).lo;
  for (;;) {
    f(c);
    int j = 0;
    for (; j < r.dimensions(); ++j) {
      auto& idx = c[static_cast<std::size_t>(j)];
      if (idx < r.interval(j).hi) {
        ++idx;
        break;
      }
      idx = r.interval(j).lo;
    }
    if (j == r.dimensions()) return;
  }
}

/// classify(a, b) against the region algebra: the slot it names is the one
/// piece of the partition around `a` — C_0(a) or an N(l,k)(a) — holding b.
void expect_slot_of_region(const Cells& c, const CellCoord& a, const CellCoord& b) {
  const int levels = c.space().max_level();
  const int dims = c.space().dimensions();
  auto slot = c.classify(a, b);
  ASSERT_TRUE(slot.has_value());
  if (slot->level == 0) {
    EXPECT_EQ(a, b);
    return;
  }
  EXPECT_TRUE(c.neighbor_region(a, slot->level, slot->dim).contains(b));
  // ... and no other slot's region contains b.
  for (int l = 1; l <= levels; ++l)
    for (int k = 0; k < dims; ++k) {
      if (l == slot->level && k == slot->dim) continue;
      EXPECT_FALSE(c.neighbor_region(a, l, k).contains(b))
          << "b also in N(" << l << "," << k << ")";
    }
}

TEST(Cells, ClassifyMatchesNeighborRegion) {
  // classify(self, other) must return exactly the (l,k) whose region
  // contains `other` — the core consistency between routing-table slotting
  // and query forwarding. The region algebra is the reference.

  // Every pair of level-0 cells on small spaces. C_0(a) and the N(l,k)(a)
  // partition the grid, so walking each piece's cells meets every b once,
  // and the pieces' cell counts must add up to the whole grid.
  for (int d = 1; d <= 3; ++d) {
    for (int levels = 1; levels <= 4; ++levels) {
      auto s = AttributeSpace::uniform(d, levels, 0, 80);
      Cells c(s);
      const Region whole = Region::whole(s);
      std::uint64_t pairs = 0;
      std::uint64_t wrong = 0;
      std::string first_wrong;
      for_each_cell(whole, [&](const CellCoord& a) {
        auto walk = [&](const Region& piece, CellSlot want) {
          for_each_cell(piece, [&](const CellCoord& b) {
            ++pairs;
            auto slot = c.classify(a, b);
            if (slot.has_value() && *slot == want) return;
            if (wrong++ == 0)
              first_wrong = "a=" + testing::PrintToString(a) +
                            " b=" + testing::PrintToString(b) + " want (" +
                            std::to_string(want.level) + "," +
                            std::to_string(want.dim) + ")";
          });
        };
        walk(c.cell_region(a, 0), {0, -1});
        for (int l = 1; l <= levels; ++l)
          for (int k = 0; k < d; ++k) walk(c.neighbor_region(a, l, k), {l, k});
      });
      EXPECT_EQ(pairs, whole.cell_volume() * whole.cell_volume())
          << "d=" << d << " max_level=" << levels;
      EXPECT_EQ(wrong, 0u) << "d=" << d << " max_level=" << levels << ": "
                           << first_wrong;
    }
  }

  // Random pairs at d=4 and at d=kMaxDimensions.
  for (int d : {4, static_cast<int>(kMaxDimensions)}) {
    auto s = AttributeSpace::uniform(d, 3, 0, 80);
    Cells c(s);
    Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
      CellCoord a(static_cast<std::size_t>(d)), b(static_cast<std::size_t>(d));
      for (std::size_t j = 0; j < a.size(); ++j) {
        a[j] = static_cast<CellIndex>(rng.below(8));
        // About four redrawn indices per pair: uniform at d=4, and at d=16
        // pairs still share fine cells often enough to hit low levels.
        b[j] = rng.below(a.size()) < 4 ? static_cast<CellIndex>(rng.below(8)) : a[j];
      }
      expect_slot_of_region(c, a, b);
    }
  }

  // An index at or past 2^max_level lies outside the space: a pair that
  // differs there has no slot, whatever the other dimensions hold.
  for (int levels = 1; levels <= 4; ++levels) {
    auto s = AttributeSpace::uniform(3, levels, 0, 80);
    Cells c(s);
    const CellIndex side = s.cells_per_dim();
    Rng rng(static_cast<std::uint64_t>(levels));
    for (int trial = 0; trial < 200; ++trial) {
      CellCoord a(3), b(3);
      for (std::size_t j = 0; j < 3; ++j) {
        a[j] = static_cast<CellIndex>(rng.below(side));
        b[j] = static_cast<CellIndex>(rng.below(side));
      }
      const std::size_t j = rng.index(3);
      const CellIndex outside[] = {side, static_cast<CellIndex>(side + rng.below(side)),
                                   static_cast<CellIndex>(side << rng.below(8)),
                                   ~CellIndex{0}};
      b[j] = outside[rng.index(4)];
      EXPECT_FALSE(c.classify(a, b).has_value()) << "index " << b[j];
      EXPECT_FALSE(c.classify(b, a).has_value()) << "index " << b[j];
    }
  }
}

TEST(Cells, SubcellsPartitionTheSpace) {
  // For any node, C_0 plus all N(l,k) partition the whole grid: every cell
  // is in exactly one piece. (This is what guarantees full query coverage.)
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  CellCoord a{5, 1};
  for (CellIndex x = 0; x < 8; ++x) {
    for (CellIndex y = 0; y < 8; ++y) {
      CellCoord b{x, y};
      int containers = c.cell_region(a, 0).contains(b) ? 1 : 0;
      for (int l = 1; l <= 3; ++l)
        for (int k = 0; k < 2; ++k)
          if (c.neighbor_region(a, l, k).contains(b)) ++containers;
      EXPECT_EQ(containers, 1) << "cell (" << x << "," << y << ")";
    }
  }
}

TEST(Cells, CellKeyGroupsByLevel) {
  auto s = AttributeSpace::uniform(2, 3, 0, 80);
  Cells c(s);
  const CellIndex a[] = {0, 0}, b[] = {1, 1}, far[] = {2, 0};
  EXPECT_EQ(c.cell_key(a, 1), c.cell_key(b, 1));
  EXPECT_NE(c.cell_key(a, 1), c.cell_key(far, 1));
  // Same cell coordinates at different levels must key differently.
  EXPECT_NE(c.cell_key(a, 0), c.cell_key(a, 1));
}

TEST(Cells, ClassifyNeverFailsOnRandomCoords) {
  auto s = AttributeSpace::uniform(6, 4, 0, 1 << 10);
  Cells c(s);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    CellCoord a(6), b(6);
    for (int j = 0; j < 6; ++j) {
      a[static_cast<std::size_t>(j)] = static_cast<CellIndex>(rng.below(16));
      b[static_cast<std::size_t>(j)] = static_cast<CellIndex>(rng.below(16));
    }
    EXPECT_TRUE(c.classify(a, b).has_value());
  }
}

}  // namespace
}  // namespace ares
