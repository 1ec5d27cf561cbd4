#include "workload/machine_space.h"

#include <gtest/gtest.h>

#include "common/summary.h"
#include "exp/grid.h"

namespace ares {
namespace {

TEST(MachineSpace, ShapeAndBoundaries) {
  auto s = machine_space();
  EXPECT_EQ(s.dimensions(), 5);
  EXPECT_EQ(s.max_level(), 3);
  // The paper's irregular-boundaries example: memory cells are NOT equal
  // width.
  auto w0 = *s.cell_value_hi(kMemoryMb, 0) - s.cell_value_lo(kMemoryMb, 0);
  auto w5 = *s.cell_value_hi(kMemoryMb, 5) - s.cell_value_lo(kMemoryMb, 5);
  EXPECT_NE(w0, w5);
}

TEST(MachineSpace, MemoryCellMapping) {
  auto s = machine_space();
  EXPECT_EQ(s.cell_index(kMemoryMb, 100), 0u);     // < 256 MB
  EXPECT_EQ(s.cell_index(kMemoryMb, 4096), 5u);    // [4GB, 8GB)
  EXPECT_EQ(s.cell_index(kMemoryMb, 5000), 5u);
  EXPECT_EQ(s.cell_index(kMemoryMb, 1u << 20), 7u);  // open-ended top
}

TEST(MachineSpace, GeneratorProducesValidArchetypes) {
  auto gen = machine_points();
  Rng rng(5);
  int servers = 0;
  for (int i = 0; i < 2000; ++i) {
    Point p = gen(rng);
    ASSERT_EQ(p.size(), 5u);
    EXPECT_LE(p[kCpuIsa], kIsaSparc);
    EXPECT_GE(p[kOsCode], kOsLinux);
    if (p[kMemoryMb] >= 16384 && p[kBandwidthKbps] >= 102400) ++servers;
  }
  // Servers exist but are a minority.
  EXPECT_GT(servers, 20);
  EXPECT_LT(servers, 600);
}

TEST(MachineSpace, ServersCorrelateAcrossAttributes) {
  auto gen = machine_points();
  Rng rng(6);
  Summary disk_big_mem, disk_small_mem;
  for (int i = 0; i < 4000; ++i) {
    Point p = gen(rng);
    if (p[kMemoryMb] >= 16384)
      disk_big_mem.add(static_cast<double>(p[kDiskGb]));
    else if (p[kMemoryMb] <= 1024)
      disk_small_mem.add(static_cast<double>(p[kDiskGb]));
  }
  ASSERT_GT(disk_big_mem.count(), 50u);
  ASSERT_GT(disk_small_mem.count(), 50u);
  EXPECT_GT(disk_big_mem.mean(), 3 * disk_small_mem.mean());
}

TEST(MachineSpace, PaperExampleQuerySemantics) {
  auto q = paper_example_query();
  // An IA32-64 Linux 2.6.19 server with plenty of everything matches.
  EXPECT_TRUE(q.matches({kIsaX86_64, 8192, 1024, 256, kOsLinux + 19}));
  // ARM fails the CPU constraint.
  EXPECT_FALSE(q.matches({kIsaArm64, 8192, 1024, 256, kOsLinux + 19}));
  // Too little memory.
  EXPECT_FALSE(q.matches({kIsaX86_64, 2048, 1024, 256, kOsLinux + 19}));
  // Wrong OS generation.
  EXPECT_FALSE(q.matches({kIsaX86_64, 8192, 1024, 256, kOsLinux + 25}));
}

TEST(MachineSpace, EndToEndQueryOnIrregularGrid) {
  // The exactly-once invariant must hold on irregular boundaries too.
  Grid::Config cfg{.space = machine_space()};
  cfg.nodes = 500;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 9;
  cfg.protocol.gossip_enabled = false;
  Grid grid(cfg, machine_points());

  for (const auto& q :
       {paper_example_query(),
        RangeQuery::any(5).with(kMemoryMb, 4096, std::nullopt),
        RangeQuery::any(5).with(kCpuIsa, kIsaArm32, kIsaArm64),
        RangeQuery::any(5).with(kBandwidthKbps, 100000, std::nullopt)}) {
    auto truth = grid.ground_truth(q);
    auto out = grid.run_query(grid.random_node(), q);
    ASSERT_TRUE(out.completed);
    std::set<NodeId> got;
    for (const auto& m : out.matches) got.insert(m.id);
    EXPECT_EQ(got, std::set<NodeId>(truth.begin(), truth.end()));
    EXPECT_EQ(grid.stats().find(out.id)->duplicates, 0u);
  }
}

TEST(MachineSpace, OpenEndedTopCellQueryable) {
  Grid::Config cfg{.space = machine_space()};
  cfg.nodes = 300;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 10;
  cfg.protocol.gossip_enabled = false;
  Grid grid(cfg, machine_points());
  // 128 GB RAM is beyond the last cut (16384): top-cell residents.
  auto q = RangeQuery::any(5).with(kMemoryMb, 131072, std::nullopt);
  auto out = grid.run_query(grid.random_node(), q);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.matches.size(), grid.ground_truth(q).size());
}

}  // namespace
}  // namespace ares
