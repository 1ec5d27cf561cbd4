/// Per-node memory attribution (memory_bytes()): a started node's heap is
/// its protocol state — gossip views, routing slots, query tables — and
/// nothing more. The bounds derive from the configured view sizes and slot
/// capacity, so a buffer that outlives the call that used it (the bootstrap
/// list after start(), selection scratch kept warm per instance) breaks
/// them.

#include <gtest/gtest.h>

#include "exp/grid.h"
#include "sim/network.h"
#include "workload/distributions.h"

namespace ares {
namespace {

/// Heap a vector grown one insert at a time holds for up to `n` entries:
/// growth at most doubles the capacity it needs.
std::size_t grown(std::size_t n) { return 2 * n * sizeof(CompactPeer); }

/// Both gossip layers: each view holds at most its configured size, and
/// CYCLON's pending subset at most one shuffle.
std::size_t gossip_bound(const ProtocolConfig& p) {
  return sizeof(Cyclon) + sizeof(Vicinity) +
         grown(p.cyclon.cache_size + p.cyclon.shuffle_len + p.vicinity.view_size);
}

/// The routing table: slot_capacity entries and one count per N(l,k), plus
/// a neighborsZero set that momentarily holds one entry past its cap.
std::size_t routing_bound(const AttributeSpace& space, const ProtocolConfig& p) {
  const auto slots = static_cast<std::size_t>(space.max_level() * space.dimensions());
  return sizeof(RoutingTable) +
         slots * (p.routing.slot_capacity * sizeof(CompactPeer) + sizeof(std::uint16_t)) +
         grown(p.routing.zero_capacity + 1);
}

void expect_protocol_state_only(Grid& grid, const char* when) {
  const ProtocolConfig& p = grid.config().protocol;
  for (NodeId id : grid.node_ids()) {
    const SelectionNode& node = grid.node(id);
    const std::size_t gossip =
        node.cyclon().memory_bytes() + node.vicinity().memory_bytes();
    const std::size_t routing = node.routing().memory_bytes();
    EXPECT_LE(gossip, gossip_bound(p)) << when << ", node " << id;
    EXPECT_LE(routing, routing_bound(grid.space(), p)) << when << ", node " << id;
    // No queries ran and no dynamic values were set: beyond its layers, the
    // node is its object — no bootstrap list, no scratch.
    EXPECT_EQ(node.memory_bytes() - gossip - routing, sizeof(SelectionNode))
        << when << ", node " << id;
  }
}

TEST(NodeMemory, StartedNodeHoldsOnlyProtocolState) {
  // A view is its capacity and its entries, with no sampling buffer beside.
  EXPECT_EQ(sizeof(View), sizeof(std::size_t) + sizeof(std::vector<CompactPeer>));

  Grid::Config cfg{.space = AttributeSpace::uniform(3, 3, 0, 80)};
  cfg.nodes = 300;
  cfg.oracle = false;  // gossip mode: every node starts from introducers
  cfg.latency = "lan";
  cfg.seed = 5;
  cfg.bootstrap_contacts = 5;
  cfg.protocol.routing.zero_capacity = 8;
  Grid grid(cfg, uniform_points(cfg.space, 0, 80));
  expect_protocol_state_only(grid, "after start()");

  grid.sim().run_until(grid.sim().now() + 50 * cfg.protocol.gossip_period);
  expect_protocol_state_only(grid, "after 50 gossip cycles");
  // The overlay did form: the bounds are not met by empty views.
  std::size_t links = 0;
  for (NodeId id : grid.node_ids()) links += grid.node(id).routing().link_count();
  EXPECT_GT(links, grid.node_ids().size() * 5);
}

/// Counts every message it receives, whatever its kind.
class CountingNode final : public Node {
 public:
  void on_message(NodeId, const Message&) override { ++received; }
  int received = 0;
};

TEST(NodeMemory, HostileGossipIdOnTheSimNetworkChangesNothing) {
  // The simulator hands messages over as pointers, with no codec between:
  // the node's own ingress check is all that keeps an id past the store's
  // rows from growing the store.
  const auto space = AttributeSpace::uniform(2, 3, 0, 80);
  DescriptorStore store(space);
  ProtocolConfig cfg;  // outlives the network that owns the node
  cfg.gossip_enabled = false;
  Simulator sim(1);
  Network net(sim, std::make_unique<ConstantLatency>(10));
  const NodeId peer = net.add_node(std::make_unique<CountingNode>());
  const NodeId a = net.add_node(std::make_unique<SelectionNode>(
      space, store, Point{5, 5}, cfg, std::vector<PeerDescriptor>{}, Rng(1)));
  const SelectionNode& node = *net.find_as<SelectionNode>(a);
  const std::size_t rows = store.size();
  const std::size_t store_bytes = store.memory_bytes();
  const std::size_t node_bytes = node.memory_bytes();

  for (const NodeId hostile : {store.id_bound(), store.id_bound() + 1000}) {
    auto m = std::make_unique<CyclonShuffleMsg>();
    m->entries.push_back(PeerDescriptor{peer, {45, 45}});
    m->entries.push_back(PeerDescriptor{hostile, {15, 15}});
    net.send(peer, a, std::move(m));
  }
  sim.run();
  EXPECT_EQ(net.metrics().node_value(a, "wire.decode_fail"), 2u);
  EXPECT_EQ(net.find_as<CountingNode>(peer)->received, 0);  // nothing answered
  EXPECT_TRUE(node.cyclon().view().empty());
  EXPECT_FALSE(store.contains(peer));  // the whole frame was dropped
  EXPECT_EQ(store.size(), rows);
  EXPECT_EQ(store.memory_bytes(), store_bytes);
  EXPECT_EQ(node.memory_bytes(), node_bytes);

  // The same shuffle without the hostile entry is absorbed and answered.
  auto good = std::make_unique<CyclonShuffleMsg>();
  good->entries.push_back(PeerDescriptor{peer, {45, 45}});
  net.send(peer, a, std::move(good));
  sim.run();
  EXPECT_EQ(net.find_as<CountingNode>(peer)->received, 1);
  EXPECT_TRUE(node.cyclon().view().contains(peer));
  EXPECT_EQ(net.metrics().total("wire.decode_fail"), 2u);
  EXPECT_TRUE(store.contains(peer));  // registered in its existing row slot
  EXPECT_EQ(store.memory_bytes(), store_bytes);
}

}  // namespace
}  // namespace ares
