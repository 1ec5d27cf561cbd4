/// Golden digest of a gossip-built overlay: every node's CYCLON view,
/// Vicinity view and routing table (neighborsZero and each N(l,k) slot), in
/// order, ids and ages, after 20 gossip cycles of a 500-node grid.
///
/// The gossip path promises byte-identical figures across refactors of the
/// selection function and the routing refresh. The figures only sample the
/// overlay through queries; this digest covers all of it. A change that
/// alters any view, slot, age or RNG draw moves the value, and re-pinning it
/// has to be a deliberate, explained step.
///
/// A second digest covers the oracle overlay every query figure starts
/// from: every routing table right after oracle_bootstrap, at the
/// benchmark's dimensionality.

#include <gtest/gtest.h>

#include <span>

#include "common/hashing.h"
#include "exp/grid.h"
#include "workload/distributions.h"

namespace ares {
namespace {

std::uint64_t mix_entries(std::uint64_t h, std::span<const CompactPeer> entries) {
  h = hash_mix(h, entries.size());
  for (const CompactPeer& e : entries)
    h = hash_mix(h, (static_cast<std::uint64_t>(e.id) << 32) | e.age);
  return h;
}

std::uint64_t mix_routing(std::uint64_t h, const RoutingTable& rt) {
  h = mix_entries(h, rt.zero());
  for (int l = 1; l <= rt.levels(); ++l)
    for (int k = 0; k < rt.dims(); ++k) h = mix_entries(h, rt.slot(l, k));
  return h;
}

std::uint64_t overlay_digest(Grid& grid) {
  std::uint64_t h = kFnvOffset;
  for (NodeId id : grid.node_ids()) {
    const SelectionNode& node = grid.node(id);
    h = hash_mix(h, id);
    h = mix_entries(h, node.cyclon().view().entries());
    h = mix_entries(h, node.vicinity().view().entries());
    h = mix_routing(h, node.routing());
  }
  return h;
}

std::uint64_t routing_digest(Grid& grid) {
  std::uint64_t h = kFnvOffset;
  for (NodeId id : grid.node_ids())
    h = mix_routing(hash_mix(h, id), grid.node(id).routing());
  return h;
}

TEST(OverlayDigest, TwentyGossipCyclesAtN500Seed1) {
  const auto space = AttributeSpace::uniform(3, 3, 0, 80);
  Grid::Config cfg{.space = space};
  cfg.nodes = 500;
  cfg.oracle = false;
  cfg.convergence = 200 * kSecond;  // 20 gossip periods
  cfg.latency = "lan";
  cfg.seed = 1;
  Grid grid(cfg, uniform_points(space, 0, 80));
  EXPECT_EQ(overlay_digest(grid), 0x6C1F19712EF5CB98ULL);
}

TEST(OverlayDigest, OracleBootstrapAtN2000Seed1) {
  // The Grid runs oracle_bootstrap once every node has joined and before
  // any gossip cycle, so these are the oracle's tables and nothing else.
  const auto space = AttributeSpace::uniform(5, 3, 0, 80);
  Grid::Config cfg{.space = space};
  cfg.nodes = 2000;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 1;
  Grid grid(cfg, uniform_points(space, 0, 80));
  EXPECT_EQ(routing_digest(grid), 0x6EE4FD4417D25148ULL);
}

}  // namespace
}  // namespace ares
