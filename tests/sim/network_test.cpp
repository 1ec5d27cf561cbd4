#include "sim/network.h"

#include <gtest/gtest.h>

#include "runtime/wire.h"

namespace ares {
namespace {

constexpr auto kPingKind = static_cast<wire::Kind>(
    static_cast<std::uint8_t>(wire::Kind::kTestBase) + 1);

struct PingMsg final : Message {
  int payload = 0;
  const char* type_name() const override { return "test.ping"; }
  wire::Kind kind() const override { return kPingKind; }
};

// Registered because the sim sizes every send through the codec: traffic
// accounting counts the frame length.
const bool kPingCodec = [] {
  wire::register_codec(
      kPingKind,
      [](const Message& m, auto& w) {
        w.u32(static_cast<std::uint32_t>(static_cast<const PingMsg&>(m).payload));
      },
      [](wire::Reader& r, wire::Kind) -> MessagePtr {
        auto m = std::make_unique<PingMsg>();
        m->payload = static_cast<int>(r.u32());
        return r.ok() ? std::move(m) : nullptr;
      });
  return true;
}();

class EchoNode final : public Node {
 public:
  void on_message(NodeId from, const Message& m) override {
    if (const auto* p = dynamic_cast<const PingMsg*>(&m)) {
      received.push_back({from, p->payload});
    }
  }
  std::vector<std::pair<NodeId, int>> received;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim(1), net(sim, std::make_unique<ConstantLatency>(10)) {}

  NodeId add() { return net.add_node(std::make_unique<EchoNode>()); }
  EchoNode& echo(NodeId id) { return *net.find_as<EchoNode>(id); }
  MessagePtr ping(int v) {
    auto m = std::make_unique<PingMsg>();
    m->payload = v;
    return m;
  }

  Simulator sim;
  Network net;
};

TEST_F(NetworkTest, AssignsMonotonicIds) {
  NodeId a = add(), b = add(), c = add();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST_F(NetworkTest, IdsNeverReused) {
  NodeId a = add();
  net.remove_node(a, false);
  NodeId b = add();
  EXPECT_GT(b, a);  // a fresh identity, as the paper's churn model requires
}

TEST_F(NetworkTest, DeliversWithLatency) {
  NodeId a = add(), b = add();
  net.send(a, b, ping(7));
  EXPECT_TRUE(echo(b).received.empty());
  sim.run();
  ASSERT_EQ(echo(b).received.size(), 1u);
  EXPECT_EQ(echo(b).received[0], (std::pair<NodeId, int>{a, 7}));
  EXPECT_EQ(sim.now(), 10);
}

TEST_F(NetworkTest, DropsToDeadNode) {
  NodeId a = add(), b = add();
  net.send(a, b, ping(1));
  net.remove_node(b, false);  // crash before delivery
  sim.run();
  EXPECT_EQ(net.stats().dropped(), 1u);
  EXPECT_EQ(net.stats().delivered(), 0u);
}

TEST_F(NetworkTest, InFlightToRemovedThenNewNodeNotMisdelivered) {
  NodeId a = add(), b = add();
  net.send(a, b, ping(1));
  net.remove_node(b, false);
  NodeId c = add();  // new node, new id
  sim.run();
  EXPECT_TRUE(echo(c).received.empty());
}

TEST_F(NetworkTest, AliveTracking) {
  NodeId a = add(), b = add();
  EXPECT_TRUE(net.alive(a));
  EXPECT_EQ(net.population(), 2u);
  net.remove_node(a, false);
  EXPECT_FALSE(net.alive(a));
  EXPECT_EQ(net.population(), 1u);
  EXPECT_EQ(net.alive_ids(), std::vector<NodeId>{b});
}

TEST_F(NetworkTest, GracefulStopInvoked) {
  class StopNode final : public Node {
   public:
    explicit StopNode(bool* flag) : flag_(flag) {}
    void stop() override { *flag_ = true; }
    void on_message(NodeId, const Message&) override {}
    bool* flag_;
  };
  bool stopped = false;
  NodeId id = net.add_node(std::make_unique<StopNode>(&stopped));
  net.remove_node(id, true);
  EXPECT_TRUE(stopped);
}

TEST_F(NetworkTest, CrashSkipsStop) {
  class StopNode final : public Node {
   public:
    explicit StopNode(bool* flag) : flag_(flag) {}
    void stop() override { *flag_ = true; }
    void on_message(NodeId, const Message&) override {}
    bool* flag_;
  };
  bool stopped = false;
  NodeId id = net.add_node(std::make_unique<StopNode>(&stopped));
  net.remove_node(id, false);
  EXPECT_FALSE(stopped);
}

TEST_F(NetworkTest, NodeTimerSkippedAfterDeath) {
  NodeId a = add();
  bool fired = false;
  net.node_timer(a, 100, [&] { fired = true; });
  net.remove_node(a, false);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST_F(NetworkTest, NodeTimerFiresWhileAlive) {
  NodeId a = add();
  bool fired = false;
  net.node_timer(a, 100, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST_F(NetworkTest, StatsPerType) {
  NodeId a = add(), b = add();
  net.send(a, b, ping(1));
  net.send(a, b, ping(2));
  sim.run();
  const auto& by_type = net.stats().sent_by_type();
  ASSERT_TRUE(by_type.contains("test.ping"));
  EXPECT_EQ(by_type.at("test.ping").count, 2u);
  // Byte accounting is codec-derived: exactly the encoded frame length.
  const std::size_t frame = wire::encoded_size(*ping(0));
  EXPECT_EQ(by_type.at("test.ping").bytes, 2 * frame);
}

TEST_F(NetworkTest, LoadFilterCountsPerNode) {
  NodeId a = add(), b = add();
  net.set_load_filter([](const Message&) { return true; });
  net.send(a, b, ping(1));
  net.send(b, a, ping(2));
  net.send(b, a, ping(3));
  sim.run();
  const auto& sent = net.stats().load_sent_by_node();
  const auto& recv = net.stats().load_received_by_node();
  EXPECT_EQ(sent[a], 1u);
  EXPECT_EQ(sent[b], 2u);
  EXPECT_EQ(recv[a], 2u);
  EXPECT_EQ(recv[b], 1u);
}

TEST_F(NetworkTest, FindAsTypeChecks) {
  NodeId a = add();
  EXPECT_NE(net.find_as<EchoNode>(a), nullptr);
  EXPECT_EQ(net.find_as<EchoNode>(9999), nullptr);
}

TEST_F(NetworkTest, DefaultModeSkipsCodecForUnregisteredKinds) {
  // The sim passes pointers: a kind without a codec still delivers.
  struct NoCodecMsg final : Message {
    const char* type_name() const override { return "test.nocodec"; }
    wire::Kind kind() const override { return static_cast<wire::Kind>(253); }
  };
  NodeId a = add(), b = add();
  net.send(a, b, std::make_unique<NoCodecMsg>());
  sim.run();
  EXPECT_EQ(net.stats().delivered(), 1u);
}

}  // namespace
}  // namespace ares
