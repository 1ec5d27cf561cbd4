/// §6 (prose): overlay-maintenance traffic. The paper estimates ~2,560
/// bytes/node/cycle (two ~320 B gossips initiated + two received per 10 s
/// cycle) and calls it negligible. With codec-measured sizes as the single
/// source of truth, that estimate becomes a testable budget. The wire
/// carries delta-coded descriptor lists, so steady-state gossip traffic
/// must land at least 25% under it, while the bytes it sent plus the
/// wire.bytes_delta_saved meter (the paper's plain layout minus the frame
/// sent) must reconcile to within +-15% of it. bench/gossip_cost.cpp
/// enforces the same two gates on the full-size run.

#include <gtest/gtest.h>

#include "exp/grid.h"
#include "workload/distributions.h"

namespace ares {
namespace {

TEST(GossipCost, SteadyStateTrafficWithinPaperBudget) {
  constexpr std::size_t kNodes = 150;
  constexpr double kCycleS = 10.0;  // gossip period (protocol default)
  constexpr int kMeasureCycles = 15;

  auto space = AttributeSpace::uniform(5, 3, 0, 80);
  Grid::Config cfg{.space = space};
  cfg.nodes = kNodes;
  cfg.oracle = false;
  cfg.convergence = from_seconds(15 * kCycleS);  // past ramp-up
  cfg.latency = "lan";
  cfg.seed = 7;
  cfg.protocol.gossip_enabled = true;
  cfg.bootstrap_contacts = 5;
  cfg.track_visited = false;
  Grid grid(std::move(cfg), uniform_points(space, 0, 80));

  auto gossip_bytes = [&] {
    std::uint64_t total = 0;
    for (const auto& [name, tc] : grid.net().stats().sent_by_type())
      if (name.starts_with("cyclon.") || name.starts_with("vicinity."))
        total += tc.bytes;
    return total;
  };

  const std::uint64_t before = gossip_bytes();
  const std::uint64_t saved_before =
      grid.net().metrics().total("wire.bytes_delta_saved");
  grid.sim().run_until(grid.sim().now() +
                       from_seconds(kMeasureCycles * kCycleS));
  const std::uint64_t after = gossip_bytes();
  const std::uint64_t saved =
      grid.net().metrics().total("wire.bytes_delta_saved") - saved_before;

  const double denom = static_cast<double>(kNodes) * kMeasureCycles;
  const double per_node_cycle = static_cast<double>(after - before) / denom;
  EXPECT_LE(per_node_cycle, 2560.0 * 0.75);
  const double paper_layout = per_node_cycle + static_cast<double>(saved) / denom;
  EXPECT_GE(paper_layout, 2560.0 * 0.85);
  EXPECT_LE(paper_layout, 2560.0 * 1.15);
}

}  // namespace
}  // namespace ares
