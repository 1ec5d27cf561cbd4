#include "runtime/loopback.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/wire.h"

namespace ares {
namespace {

constexpr auto kTextKind = wire::Kind::kTestBase;

struct TextMsg final : Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  const char* type_name() const override { return "test.text"; }
  wire::Kind kind() const override { return kTextKind; }
};

// Registered because loopback moves codec frames: every send is encoded,
// and every delivery decodes the frame.
const bool kTextCodec = [] {
  wire::register_codec(
      kTextKind,
      [](const Message& m, auto& w) { w.str(static_cast<const TextMsg&>(m).text); },
      [](wire::Reader& r, wire::Kind) -> MessagePtr {
        auto text = r.str();
        if (!r.ok()) return nullptr;
        return std::make_unique<TextMsg>(std::move(text));
      });
  return true;
}();

/// Records deliveries; optionally echoes every message back to its sender.
class EchoNode final : public Node {
 public:
  explicit EchoNode(bool echo = false) : echo_(echo) {}

  void start() override { started = true; }
  void stop() override { stopped = true; }

  void on_message(NodeId from, const Message& m) override {
    const auto& t = dynamic_cast<const TextMsg&>(m);
    received.emplace_back(from, t.text);
    if (echo_ && t.text != "echo")
      send(from, std::make_unique<TextMsg>("echo"));
  }

  std::vector<std::pair<NodeId, std::string>> received;
  bool started = false;
  bool stopped = false;

 private:
  bool echo_;
};

TEST(LoopbackRuntime, AssignsMonotonicIdsAndStartsNodes) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>());
  EXPECT_LT(a, b);
  EXPECT_TRUE(rt.find_as<EchoNode>(a)->started);
  EXPECT_EQ(rt.population(), 2u);
  rt.remove_node(a, false);
  NodeId c = rt.add_node(std::make_unique<EchoNode>());
  EXPECT_GT(c, b);  // ids are never reused
  EXPECT_FALSE(rt.alive(a));
}

TEST(LoopbackRuntime, DeliversInFifoOrderOnDrain) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>());
  rt.send(a, b, std::make_unique<TextMsg>("one"));
  rt.send(a, b, std::make_unique<TextMsg>("two"));
  EXPECT_TRUE(rt.find_as<EchoNode>(b)->received.empty());  // not reentrant
  rt.deliver_pending();
  auto& got = rt.find_as<EchoNode>(b)->received;
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].second, "one");
  EXPECT_EQ(got[1].second, "two");
  EXPECT_EQ(rt.delivered(), 2u);
}

TEST(LoopbackRuntime, CascadingRepliesDrainInOneCall) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>(/*echo=*/true));
  rt.send(a, b, std::make_unique<TextMsg>("ping"));
  rt.deliver_pending();
  auto& echoes = rt.find_as<EchoNode>(a)->received;
  ASSERT_EQ(echoes.size(), 1u);
  EXPECT_EQ(echoes[0].first, b);
  EXPECT_EQ(echoes[0].second, "echo");
}

TEST(LoopbackRuntime, MessagesToDeadNodesAreDropped) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>());
  rt.send(a, b, std::make_unique<TextMsg>("late"));
  rt.remove_node(b, false);
  rt.deliver_pending();
  EXPECT_EQ(rt.dropped(), 1u);
  EXPECT_EQ(rt.delivered(), 0u);
}

TEST(LoopbackRuntime, GracefulRemoveCallsStopCrashDoesNot) {
  class StopProbe final : public Node {
   public:
    explicit StopProbe(bool* flag) : flag_(flag) {}
    void stop() override { *flag_ = true; }
    void on_message(NodeId, const Message&) override {}

   private:
    bool* flag_;
  };

  LoopbackRuntime rt;
  bool leave_stopped = false, crash_stopped = false;
  NodeId leaver = rt.add_node(std::make_unique<StopProbe>(&leave_stopped));
  NodeId crasher = rt.add_node(std::make_unique<StopProbe>(&crash_stopped));
  rt.remove_node(leaver, /*graceful=*/true);
  rt.remove_node(crasher, /*graceful=*/false);
  EXPECT_TRUE(leave_stopped);
  EXPECT_FALSE(crash_stopped);
}

TEST(LoopbackRuntime, TimersFireInTimeThenFifoOrder) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  std::vector<int> order;
  rt.node_timer(a, 20, [&] { order.push_back(2); });
  rt.node_timer(a, 10, [&] { order.push_back(1); });
  rt.node_timer(a, 10, [&] { order.push_back(3); });  // same time: FIFO
  rt.advance(15);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(rt.now(), 15);
  rt.advance(10);
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(rt.now(), 25);
}

TEST(LoopbackRuntime, TimersOfDepartedNodesLapse) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  bool fired = false;
  rt.node_timer(a, 10, [&] { fired = true; });
  rt.remove_node(a, false);
  rt.advance(100);
  EXPECT_FALSE(fired);  // incarnation-safe cancellation
}

TEST(LoopbackRuntime, TimerCanScheduleFollowUpAndSend) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>());
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    rt.send(a, b, std::make_unique<TextMsg>("tick"));
    if (ticks < 3) rt.node_timer(a, 10, tick);
  };
  rt.node_timer(a, 10, tick);
  rt.advance(100);
  EXPECT_EQ(ticks, 3);
  // Each tick's message drained before the next timer fired.
  EXPECT_EQ(rt.find_as<EchoNode>(b)->received.size(), 3u);
  EXPECT_TRUE(rt.idle());
}

TEST(LoopbackRuntime, MetricsRegistryIsShared) {
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  rt.metrics().inc(a, "test.counter", 2);
  EXPECT_EQ(rt.metrics().total("test.counter"), 2u);
}

TEST(LoopbackRuntime, RecodesAndDropsUncodable) {
  struct NoCodecMsg final : Message {
    const char* type_name() const override { return "test.nocodec"; }
    wire::Kind kind() const override { return static_cast<wire::Kind>(255); }
  };
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>());
  rt.send(a, b, std::make_unique<TextMsg>("over the wire"));
  rt.send(a, b, std::make_unique<NoCodecMsg>());  // dropped at the boundary
  rt.deliver_pending();
  auto& got = rt.find_as<EchoNode>(b)->received;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, "over the wire");  // decoded copy, text intact
  EXPECT_EQ(rt.dropped(), 1u);
  EXPECT_EQ(rt.metrics().total("wire.encode_fail"), 1u);
  EXPECT_EQ(rt.metrics().node_value(a, "wire.encode_fail"), 1u);
}

TEST(LoopbackRuntime, UndecodableFramesAreDroppedAndMetered) {
  constexpr auto kBrokenKind = static_cast<wire::Kind>(254);
  struct BrokenMsg final : Message {
    const char* type_name() const override { return "test.broken"; }
    wire::Kind kind() const override { return kBrokenKind; }
  };
  // A codec whose frames never parse back: encode succeeds, decode refuses.
  wire::register_codec(kBrokenKind, [](const Message&, auto& w) { w.u8(0); },
                       [](wire::Reader&, wire::Kind) -> MessagePtr { return nullptr; });
  LoopbackRuntime rt;
  NodeId a = rt.add_node(std::make_unique<EchoNode>());
  NodeId b = rt.add_node(std::make_unique<EchoNode>());
  rt.send(a, b, std::make_unique<BrokenMsg>());
  rt.send(a, b, std::make_unique<TextMsg>("after"));
  rt.deliver_pending();
  auto& got = rt.find_as<EchoNode>(b)->received;
  ASSERT_EQ(got.size(), 1u);  // the broken frame never reached the handler
  EXPECT_EQ(got[0].second, "after");
  EXPECT_EQ(rt.dropped(), 1u);
  EXPECT_EQ(rt.delivered(), 1u);
  EXPECT_EQ(rt.metrics().total("wire.decode_fail"), 1u);
  EXPECT_EQ(rt.metrics().node_value(b, "wire.decode_fail"), 1u);
  EXPECT_EQ(rt.metrics().total("wire.encode_fail"), 0u);
}

TEST(LoopbackRuntime, RngIsDeterministicPerSeed) {
  LoopbackRuntime r1(7), r2(7), r3(8);
  EXPECT_EQ(r1.rng().next(), r2.rng().next());
  EXPECT_NE(r1.rng().next(), r3.rng().next());
}

}  // namespace
}  // namespace ares
