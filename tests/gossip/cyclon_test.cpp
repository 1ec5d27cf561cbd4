#include "gossip/cyclon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>

#include "runtime/loopback.h"
#include "space/descriptor_store.h"

namespace ares {
namespace {

/// One shared 1-d space/store per test: hosts register peers on receipt
/// exactly as SelectionNode does against the Grid-wide store. Every layer
/// references the one config, as a deployment's nodes share theirs.
struct StoreFixture {
  AttributeSpace space = AttributeSpace::uniform(1, 1, 0, 100);
  DescriptorStore store{space};
  const CyclonConfig cfg{};
};

/// Minimal runtime node hosting only the CYCLON layer.
class CyclonHost final : public Node {
 public:
  CyclonHost(DescriptorStore& store, const CyclonConfig& cfg, Rng rng,
             std::vector<PeerDescriptor> bootstrap)
      : store_(store), cfg_(cfg), rng_(rng), bootstrap_(std::move(bootstrap)) {}

  void start() override {
    store_.put(id(), Point{0});
    cyclon_ = std::make_unique<Cyclon>(
        id(), store_, cfg_, rng_,
        [this](NodeId to, MessagePtr m) { send(to, std::move(m)); });
    cyclon_->seed(bootstrap_);
    SimTime phase = static_cast<SimTime>(rng_.below(10 * kSecond));
    after(phase, [this] { tick(); });
  }

  void on_message(NodeId from, const Message& m) override {
    cyclon_->handle(from, m);
  }

  const Cyclon& cyclon() const { return *cyclon_; }

 private:
  void tick() {
    cyclon_->tick();
    after(10 * kSecond, [this] { tick(); });
  }

  DescriptorStore& store_;
  const CyclonConfig& cfg_;
  Rng rng_;
  std::vector<PeerDescriptor> bootstrap_;
  std::unique_ptr<Cyclon> cyclon_;
};

/// The shuffle protocol driven end-to-end on the loopback runtime: no
/// Simulator/Network pair, zero-latency delivery, manually advanced clock.
class CyclonLoopbackTest : public ::testing::Test, protected StoreFixture {
 protected:
  CyclonLoopbackTest() : net(42) {}

  /// Builds a line topology: node i bootstraps knowing node i-1 only.
  void build(std::size_t n) {
    Rng seeder(7);
    std::vector<PeerDescriptor> prev;
    for (std::size_t i = 0; i < n; ++i) {
      NodeId id = net.add_node(std::make_unique<CyclonHost>(store, cfg, seeder.fork(), prev));
      prev = {PeerDescriptor{id, {0}, 0}};
      ids.push_back(id);
    }
  }

  const Cyclon& cyclon(NodeId id) { return net.find_as<CyclonHost>(id)->cyclon(); }

  /// Nodes reachable from `root` following current view edges.
  std::size_t reachable(NodeId root) {
    std::set<NodeId> seen{root};
    std::queue<NodeId> q;
    q.push(root);
    while (!q.empty()) {
      NodeId cur = q.front();
      q.pop();
      if (!net.alive(cur)) continue;
      for (const auto& e : cyclon(cur).view().entries()) {
        if (net.alive(e.id) && seen.insert(e.id).second) q.push(e.id);
      }
    }
    return seen.size();
  }

  LoopbackRuntime net;
  std::vector<NodeId> ids;
};

TEST_F(CyclonLoopbackTest, ViewsFillUp) {
  build(50);
  net.run_until(300 * kSecond);  // 30 cycles
  for (NodeId id : ids)
    EXPECT_GE(cyclon(id).view().size(), 15u) << "node " << id;
}

TEST_F(CyclonLoopbackTest, NoSelfReferences) {
  build(30);
  net.run_until(300 * kSecond);
  for (NodeId id : ids) EXPECT_FALSE(cyclon(id).view().contains(id));
}

TEST_F(CyclonLoopbackTest, ConnectivityFromLineBootstrap) {
  build(60);
  net.run_until(300 * kSecond);
  EXPECT_EQ(reachable(ids.front()), 60u);
  EXPECT_EQ(reachable(ids.back()), 60u);
}

TEST_F(CyclonLoopbackTest, RandomizesBeyondBootstrapNeighbors) {
  build(60);
  net.run_until(600 * kSecond);
  // After mixing, a node's view should NOT be dominated by its line
  // neighbors: count view entries within +/-2 of its own index.
  std::size_t near_total = 0, entries_total = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (const auto& e : cyclon(ids[i]).view().entries()) {
      ++entries_total;
      auto it = std::find(ids.begin(), ids.end(), e.id);
      if (it == ids.end()) continue;
      auto j = static_cast<std::size_t>(it - ids.begin());
      if (i + 2 >= j && j + 2 >= i) ++near_total;
    }
  }
  EXPECT_LT(static_cast<double>(near_total) / static_cast<double>(entries_total), 0.3);
}

TEST_F(CyclonLoopbackTest, DeadNodesWashOut) {
  build(40);
  net.run_until(300 * kSecond);
  NodeId victim = ids[5];
  net.remove_node(victim, false);
  net.advance( 600 * kSecond);  // ~60 more cycles
  for (NodeId id : ids) {
    if (!net.alive(id)) continue;
    EXPECT_FALSE(cyclon(id).view().contains(victim)) << "node " << id;
  }
}

TEST_F(CyclonLoopbackTest, SurvivesMassPartialFailure) {
  build(60);
  net.run_until(300 * kSecond);
  // Kill half the nodes at once.
  for (std::size_t i = 0; i < 30; ++i) net.remove_node(ids[i * 2], false);
  net.advance( 600 * kSecond);
  // The survivors' overlay must remain connected.
  NodeId root = kInvalidNode;
  for (NodeId id : ids)
    if (net.alive(id)) {
      root = id;
      break;
    }
  ASSERT_NE(root, kInvalidNode);
  EXPECT_EQ(reachable(root), net.population());
}

TEST(CyclonUnit, SeedSkipsSelf) {
  Rng rng(1);
  std::vector<MessagePtr> outbox;
  StoreFixture f;
  f.store.put(3, Point{0});
  Cyclon c(3, f.store, f.cfg, rng,
           [&](NodeId, MessagePtr m) { outbox.push_back(std::move(m)); });
  c.seed({PeerDescriptor{3, {0}, 0}, PeerDescriptor{4, {0}, 0}});
  EXPECT_FALSE(c.view().contains(3));
  EXPECT_TRUE(c.view().contains(4));
}

TEST(CyclonUnit, TickRemovesTargetAndSendsRequest) {
  Rng rng(1);
  std::vector<std::pair<NodeId, MessagePtr>> outbox;
  StoreFixture f;
  f.store.put(1, Point{0});
  Cyclon c(1, f.store, f.cfg, rng,
           [&](NodeId to, MessagePtr m) { outbox.emplace_back(to, std::move(m)); });
  c.seed({PeerDescriptor{2, {0}, 5}, PeerDescriptor{3, {0}, 1}});
  c.tick();
  // Oldest (2) chosen and removed from the view.
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox[0].first, 2u);
  EXPECT_FALSE(c.view().contains(2));
  const auto* msg = dynamic_cast<const CyclonShuffleMsg*>(outbox[0].second.get());
  ASSERT_NE(msg, nullptr);
  EXPECT_FALSE(msg->is_reply);
  // The subset must advertise the sender with age 0.
  bool has_self = false;
  for (const auto& e : msg->entries) has_self = has_self || (e.id == 1 && e.age == 0);
  EXPECT_TRUE(has_self);
}

TEST(CyclonUnit, EmptyViewTickIsNoop) {
  Rng rng(1);
  int sends = 0;
  StoreFixture f;
  f.store.put(1, Point{0});
  Cyclon c(1, f.store, f.cfg, rng,
           [&](NodeId, MessagePtr) { ++sends; });
  c.tick();
  EXPECT_EQ(sends, 0);
}

TEST(CyclonUnit, HandleRequestSendsReplyAndMerges) {
  Rng rng(1);
  std::vector<std::pair<NodeId, MessagePtr>> outbox;
  StoreFixture f;
  f.store.put(1, Point{0});
  Cyclon c(1, f.store, f.cfg, rng,
           [&](NodeId to, MessagePtr m) { outbox.emplace_back(to, std::move(m)); });
  c.seed({PeerDescriptor{5, {0}, 0}});
  CyclonShuffleMsg req;
  req.is_reply = false;
  req.entries = {PeerDescriptor{9, {0}, 0}, PeerDescriptor{1, {0}, 0}};
  EXPECT_TRUE(c.handle(7, req));
  ASSERT_EQ(outbox.size(), 1u);
  EXPECT_EQ(outbox[0].first, 7u);
  const auto* reply = dynamic_cast<const CyclonShuffleMsg*>(outbox[0].second.get());
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->is_reply);
  EXPECT_TRUE(c.view().contains(9));   // merged
  EXPECT_FALSE(c.view().contains(1));  // self discarded
}

TEST(CyclonUnit, IgnoresForeignMessages) {
  Rng rng(1);
  StoreFixture f;
  f.store.put(1, Point{0});
  Cyclon c(1, f.store, f.cfg, rng,
           [&](NodeId, MessagePtr) {});
  struct Other final : Message {
    const char* type_name() const override { return "other"; }
    wire::Kind kind() const override { return wire::Kind::kTestBase; }
  } other;
  EXPECT_FALSE(c.handle(2, other));
}

}  // namespace
}  // namespace ares
