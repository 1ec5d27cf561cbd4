/// The change-only routing refresh (SelectionNode::refresh_routing): after a
/// gossip frame a node offers its routing table only the frame's
/// descriptors its views now hold, and falls back to re-offering both views
/// in full when the table lost an entry, or a stored peer moved cell, since
/// the last full refresh. Both must leave the table exactly where offering
/// every view entry would: after each gossip frame a node handles, offering
/// both views to a copy of its table changes nothing. The fixtures break
/// that fixed point on purpose — a timeout purge, a cleared and re-filled
/// table, attribute changes — and check every frame that follows.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/selection_node.h"
#include "exp/bootstrap.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

using IdAges = std::vector<std::pair<NodeId, std::uint32_t>>;

IdAges id_ages(std::span<const CompactPeer> entries) {
  IdAges out;
  for (const CompactPeer& e : entries) out.emplace_back(e.id, e.age);
  return out;
}

bool same_links(const RoutingTable& a, const RoutingTable& b) {
  if (id_ages(a.zero()) != id_ages(b.zero())) return false;
  for (int l = 1; l <= a.levels(); ++l)
    for (int k = 0; k < a.dims(); ++k)
      if (id_ages(a.slot(l, k)) != id_ages(b.slot(l, k))) return false;
  return true;
}

/// Offering every entry of both views to a copy of the node's table leaves
/// the copy as it was.
bool at_fixed_point(const SelectionNode& node) {
  RoutingTable copy = node.routing();
  for (const CompactPeer c : node.cyclon().view().entries()) copy.offer(c);
  for (const CompactPeer c : node.vicinity().view().entries()) copy.offer(c);
  return same_links(copy, node.routing());
}

bool is_gossip(wire::Kind kind) {
  return kind == wire::Kind::kCyclonRequest || kind == wire::Kind::kCyclonReply ||
         kind == wire::Kind::kVicinityRequest || kind == wire::Kind::kVicinityReply;
}

/// A discrete-event runtime with 1-50 ms message latency that hands the
/// receiving node to `on_frame` right after it handled a gossip frame.
class FrameCheckRuntime final : public Runtime {
 public:
  explicit FrameCheckRuntime(std::uint64_t seed) : rng_(seed) {}
  ~FrameCheckRuntime() override {
    for (auto& [id, node] : nodes_) unbind(*node);
  }

  SimTime now() const override { return now_; }
  Rng& rng() override { return rng_; }

  void send(NodeId from, NodeId to, MessagePtr m) override {
    const auto latency = static_cast<SimTime>(1 + rng_.below(50)) * kMillisecond;
    at(now_ + latency, [this, from, to, m = std::move(m)] {
      auto it = nodes_.find(to);
      if (it == nodes_.end()) return;  // crashed
      it->second->on_message(from, *m);
      if (is_gossip(m->kind())) on_frame(*it->second);
    });
  }

  void node_timer(NodeId id, SimTime delay, UniqueAction fn) override {
    at(now_ + delay, [this, id, fn = std::move(fn)]() mutable {
      if (nodes_.contains(id)) fn();
    });
  }

  NodeId add(std::unique_ptr<SelectionNode> node) {
    const NodeId id = next_id_++;
    bind(*node, *this, id);
    SelectionNode& n = *node;
    nodes_.emplace(id, std::move(node));
    n.start();
    return id;
  }

  /// Removes a node without telling anyone.
  void crash(NodeId id) {
    unbind(*nodes_.at(id));
    nodes_.erase(id);
  }

  void run_until(SimTime t) {
    while (!events_.empty() && events_.begin()->first.first <= t) {
      auto event = events_.extract(events_.begin());
      now_ = event.key().first;
      event.mapped()();
    }
    now_ = t;
  }

  SelectionNode& node(NodeId id) { return *nodes_.at(id); }
  std::vector<NodeId> ids() const {
    std::vector<NodeId> out;
    for (const auto& [id, node] : nodes_) out.push_back(id);
    return out;
  }

  std::function<void(SelectionNode&)> on_frame = [](SelectionNode&) {};

 private:
  void at(SimTime t, UniqueAction fn) {
    events_.emplace(std::pair{t, seq_++}, std::move(fn));
  }

  SimTime now_ = 0;
  Rng rng_;
  std::uint64_t seq_ = 0;
  NodeId next_id_ = 0;
  std::map<NodeId, std::unique_ptr<SelectionNode>> nodes_;
  std::map<std::pair<SimTime, std::uint64_t>, UniqueAction> events_;
};

/// 150 gossiping nodes on a 2-d space, 20 cycles in, every frame checked.
class RoutingRefresh : public ::testing::Test {
 protected:
  RoutingRefresh() : space(AttributeSpace::uniform(2, 3, 0, 80)), store(space), net(5) {}

  void SetUp() override {
    net.on_frame = [this](SelectionNode& n) {
      ++frames;
      if (!at_fixed_point(n)) ++off_fixed_point;
    };
    cfg.query_timeout = 1 * kSecond;
    for (std::uint64_t i = 0; i < 150; ++i) {
      std::vector<PeerDescriptor> boot;
      const auto ids = net.ids();
      for (std::size_t k = 0; k < 5 && !ids.empty(); ++k)
        boot.push_back(net.node(ids[gen.index(ids.size())]).descriptor());
      const Point p = random_point();
      Rng rng(100 + i);
      net.add(std::make_unique<SelectionNode>(space, store, p, cfg, boot, rng));
    }
    net.run_until(200 * kSecond);
    ASSERT_GT(frames, 0u);
    ASSERT_EQ(off_fixed_point, 0u) << "before any perturbation";
    frames = 0;
  }

  Point random_point() { return {gen.below(80), gen.below(80)}; }

  AttributeSpace space;
  DescriptorStore store;
  ProtocolConfig cfg;  // shared by every node; outlives the runtime
  FrameCheckRuntime net;
  Rng gen{17};
  std::size_t frames = 0;
  std::size_t off_fixed_point = 0;
};

TEST_F(RoutingRefresh, FixedPointAfterTimeoutPurge) {
  auto ids = net.ids();
  gen.shuffle(ids);
  for (std::size_t i = 0; i < 30; ++i) net.crash(ids[i]);
  // Queries over the whole space run into the dead links; each timeout
  // purges a dead peer from the table (RoutingTable::remove) and the views.
  for (std::size_t i = 30; i < 60; ++i) net.node(ids[i]).submit(RangeQuery::any(2));
  net.run_until(net.now() + 60 * kSecond);
  EXPECT_GT(net.metrics().total("query.timeouts"), 0u);
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(off_fixed_point, 0u) << "of " << frames << " frames";
}

TEST_F(RoutingRefresh, FixedPointAfterClearAndOracleRefill) {
  // A sparse refill (one candidate per slot, no neighborsZero) leaves room
  // that view entries can take.
  const auto ids = net.ids();
  for (NodeId id : ids) net.node(id).routing().clear();
  auto table = [&](std::size_t i) { return &net.node(ids[i]).routing(); };
  oracle_fill(store, ids, table, OracleOptions{.per_slot = 1, .fill_zero = false}, gen);
  net.run_until(net.now() + 30 * kSecond);
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(off_fixed_point, 0u) << "of " << frames << " frames";
}

TEST_F(RoutingRefresh, FixedPointAfterSetValues) {
  // The movers rebuild their own tables and views; every node that holds a
  // mover now classifies it into another slot.
  auto ids = net.ids();
  gen.shuffle(ids);
  const std::uint32_t moves = store.moves();
  for (std::size_t i = 0; i < 15; ++i) net.node(ids[i]).set_values(random_point());
  EXPECT_GT(store.moves(), moves);
  net.run_until(net.now() + 30 * kSecond);
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(off_fixed_point, 0u) << "of " << frames << " frames";
}

}  // namespace
}  // namespace ares
