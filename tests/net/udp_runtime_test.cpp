#include "net/udp_runtime.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/selection_node.h"
#include "net/datagram.h"
#include "net/process.h"
#include "runtime/wire.h"
#include "space/descriptor_store.h"

namespace ares::net {
namespace {

constexpr auto kTextKind = wire::Kind::kTestBase;

struct TextMsg final : Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  const char* type_name() const override { return "test.text"; }
  wire::Kind kind() const override { return kTextKind; }
};

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

class EchoNode final : public Node {
 public:
  explicit EchoNode(bool echo = false) : echo_(echo) {}

  void on_message(NodeId from, const Message& m) override {
    const auto& t = dynamic_cast<const TextMsg&>(m);
    received.emplace_back(from, t.text);
    if (echo_ && t.text != "echo") send(from, std::make_unique<TextMsg>("echo"));
  }

  void arm(SimTime delay) {
    after(delay, [this] { ++timers_fired; });
  }
  void ping(NodeId to, std::string text) {
    send(to, std::make_unique<TextMsg>(std::move(text)));
  }

  std::vector<std::pair<NodeId, std::string>> received;
  int timers_fired = 0;

 private:
  bool echo_;
};

/// Two runtimes on one thread, interleaved deterministically: each hosts
/// one half of a four-node deployment over real loopback sockets.
struct Rig {
  explicit Rig(UdpRuntime::Config ca = {}, UdpRuntime::Config cb = {}) {
    int fda = udp_bind_loopback();
    int fdb = udp_bind_loopback();
    EXPECT_GE(fda, 0);
    EXPECT_GE(fdb, 0);
    AddressBook book;
    book.set(0, {0x7F000001, local_port(fda)});
    book.set(1, {0x7F000001, local_port(fda)});
    book.set(2, {0x7F000001, local_port(fdb)});
    book.set(3, {0x7F000001, local_port(fdb)});
    a = std::make_unique<UdpRuntime>(fda, book, ca);
    b = std::make_unique<UdpRuntime>(fdb, book, cb);
  }

  EchoNode* add(UdpRuntime& rt, NodeId id, bool echo = false) {
    auto node = std::make_unique<EchoNode>(echo);
    EchoNode* raw = node.get();
    rt.add_node(id, std::move(node));
    return raw;
  }

  /// Alternates poll_once() on both runtimes until `done` or ~2 s elapse.
  bool pump(const std::function<bool()>& done) {
    for (int i = 0; i < 2000 && !done(); ++i) {
      a->poll_once(kMillisecond);
      b->poll_once(kMillisecond);
    }
    return done();
  }

  std::unique_ptr<UdpRuntime> a;
  std::unique_ptr<UdpRuntime> b;
};

TEST(UdpRuntime, CrossProcessRequestReply) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n2 = rig.add(*rig.b, 2, /*echo=*/true);
  n0->ping(2, "hello");
  ASSERT_TRUE(rig.pump([&] { return !n0->received.empty(); }));
  ASSERT_EQ(n2->received.size(), 1u);
  EXPECT_EQ(n2->received[0], (std::pair<NodeId, std::string>{0, "hello"}));
  EXPECT_EQ(n0->received[0], (std::pair<NodeId, std::string>{2, "echo"}));
  // Frame accounting matches the simulator's; the routing header is metered
  // separately, one kHeaderSize per transmitted datagram.
  EXPECT_EQ(rig.a->stats().sent(), 1u);
  EXPECT_EQ(rig.a->stats().delivered(), 1u);  // the echo, delivered at a
  EXPECT_EQ(rig.a->header_bytes(), kHeaderSize * rig.a->tx_datagrams());
  EXPECT_EQ(rig.a->tx_datagrams(), 1u);
}

TEST(UdpRuntime, SameProcessDeliveryLoopsThroughSocket) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n1 = rig.add(*rig.a, 1);
  n0->ping(1, "local");
  ASSERT_TRUE(rig.pump([&] { return !n1->received.empty(); }));
  EXPECT_EQ(n1->received[0].second, "local");
  EXPECT_EQ(rig.a->tx_datagrams(), 1u);
  EXPECT_EQ(rig.a->rx_datagrams(), 1u);
}

TEST(UdpRuntime, SendToUnknownAddressIsADrop) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  n0->ping(99, "void");
  rig.a->poll_once(0);
  EXPECT_EQ(rig.a->stats().dropped(), 1u);
  EXPECT_EQ(rig.a->tx_datagrams(), 0u);
}

TEST(UdpRuntime, TimersFireInOrderAndLapseForRemovedNodes) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n1 = rig.add(*rig.a, 1);
  n0->arm(5 * kMillisecond);
  n0->arm(10 * kMillisecond);
  n1->arm(5 * kMillisecond);
  rig.a->remove_node(1, /*graceful=*/false);
  rig.a->run_for(40 * kMillisecond);
  EXPECT_EQ(n0->timers_fired, 2);
  // n1 is destroyed; its timer lapsed without touching freed memory (ASan
  // would catch the opposite).
}

TEST(UdpRuntime, FullLossDeliversNothingAndMetersDrops) {
  UdpRuntime::Config lossy;
  lossy.faults.loss = 1.0;
  Rig rig(lossy, {});
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n2 = rig.add(*rig.b, 2);
  for (int i = 0; i < 10; ++i) n0->ping(2, "gone");
  rig.a->run_for(30 * kMillisecond);
  rig.b->run_for(30 * kMillisecond);
  EXPECT_EQ(rig.a->injected_drops(), 10u);
  EXPECT_EQ(rig.a->tx_datagrams(), 0u);
  EXPECT_EQ(rig.a->stats().dropped(), 10u);
  EXPECT_TRUE(n2->received.empty());
}

TEST(UdpRuntime, LossDrawsAreSeededAndDeterministic) {
  auto drops_with_seed = [](std::uint64_t seed) {
    UdpRuntime::Config c;
    c.seed = seed;
    c.faults.loss = 0.5;
    Rig rig(c, {});
    EchoNode* n0 = rig.add(*rig.a, 0);
    for (int i = 0; i < 64; ++i) n0->ping(2, "maybe");
    return rig.a->injected_drops();
  };
  const auto d1 = drops_with_seed(7);
  EXPECT_EQ(d1, drops_with_seed(7));
  EXPECT_GT(d1, 0u);
  EXPECT_LT(d1, 64u);
}

TEST(UdpRuntime, DelayInjectionHoldsThenReleasesDatagrams) {
  UdpRuntime::Config slow;
  slow.faults.delay_min = 30 * kMillisecond;
  slow.faults.delay_max = 30 * kMillisecond;
  Rig rig(slow, {});
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n2 = rig.add(*rig.b, 2);
  n0->ping(2, "later");
  rig.a->poll_once(0);
  rig.b->poll_once(kMillisecond);
  EXPECT_TRUE(n2->received.empty());  // still held at the sender
  EXPECT_EQ(rig.a->tx_datagrams(), 0u);
  ASSERT_TRUE(rig.pump([&] { return !n2->received.empty(); }));
  EXPECT_EQ(rig.a->tx_datagrams(), 1u);
}

// --- datagram-boundary hardening (codec frames through the socket path) ----

std::vector<std::uint8_t> frame_datagram(NodeId src, NodeId dst,
                                         const Message& m) {
  auto payload = wire::encode(m);
  EXPECT_FALSE(payload.empty());
  std::vector<std::uint8_t> d(kHeaderSize + payload.size());
  DatagramHeader h;
  h.src = src;
  h.dst = dst;
  h.payload_len = static_cast<std::uint16_t>(payload.size());
  encode_header(h, d.data());
  std::copy(payload.begin(), payload.end(), d.begin() + kHeaderSize);
  return d;
}

TEST(UdpRuntime, TruncatedDatagramsAreRejectedCleanly) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  auto d = frame_datagram(2, 0, TextMsg("whole"));
  for (std::size_t len = 0; len < d.size(); ++len)
    EXPECT_FALSE(rig.a->inject_datagram(d.data(), len)) << "len=" << len;
  EXPECT_TRUE(n0->received.empty());
  EXPECT_GT(rig.a->rx_rejected(), 0u);
  // Header-level rejects never reach the codec.
  EXPECT_EQ(rig.a->metrics().total("wire.decode_fail"), 0u);
  // The intact datagram still delivers afterwards.
  EXPECT_TRUE(rig.a->inject_datagram(d.data(), d.size()));
  EXPECT_EQ(n0->received.size(), 1u);
}

TEST(UdpRuntime, CorruptPayloadMetersDecodeFail) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  auto d = frame_datagram(2, 0, TextMsg("abc"));
  d[kHeaderSize] = 0xEE;  // unknown codec kind tag
  EXPECT_FALSE(rig.a->inject_datagram(d.data(), d.size()));
  EXPECT_TRUE(n0->received.empty());
  EXPECT_EQ(rig.a->metrics().total("wire.decode_fail"), 1u);
  EXPECT_EQ(rig.a->metrics().node_value(0, "wire.decode_fail"), 1u);
}

TEST(UdpRuntime, MisroutedAndForeignDatagramsAreRejected) {
  Rig rig;
  rig.add(*rig.a, 0);
  auto misrouted = frame_datagram(2, 3, TextMsg("not for a"));  // 3 lives on b
  EXPECT_FALSE(rig.a->inject_datagram(misrouted.data(), misrouted.size()));
  auto foreign = frame_datagram(2, 0, TextMsg("x"));
  foreign[1] ^= 0xFF;  // bad magic
  EXPECT_FALSE(rig.a->inject_datagram(foreign.data(), foreign.size()));
  auto stale = frame_datagram(2, 0, TextMsg("x"));
  stale[2] = kVersion + 1;  // future version
  EXPECT_FALSE(rig.a->inject_datagram(stale.data(), stale.size()));
  EXPECT_EQ(rig.a->rx_rejected(), 3u);
}

TEST(UdpRuntime, DuplicatedDatagramsDeliverTwice) {
  // UDP may duplicate; the runtime adds no dedup (DESIGN.md §10) and the
  // protocol tolerates it, so both copies surface.
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  auto d = frame_datagram(2, 0, TextMsg("dup"));
  EXPECT_TRUE(rig.a->inject_datagram(d.data(), d.size()));
  EXPECT_TRUE(rig.a->inject_datagram(d.data(), d.size()));
  ASSERT_EQ(n0->received.size(), 2u);
}

TEST(UdpRuntime, ReorderedDatagramsBothDeliver) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  auto first = frame_datagram(2, 0, TextMsg("first"));
  auto second = frame_datagram(2, 0, TextMsg("second"));
  EXPECT_TRUE(rig.a->inject_datagram(second.data(), second.size()));
  EXPECT_TRUE(rig.a->inject_datagram(first.data(), first.size()));
  ASSERT_EQ(n0->received.size(), 2u);
  EXPECT_EQ(n0->received[0].second, "second");
  EXPECT_EQ(n0->received[1].second, "first");
}

TEST(UdpRuntime, OversizeFramesAreDroppedAtSend) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  n0->ping(2, std::string(kMaxDatagram, 'x'));  // frame > max payload
  EXPECT_EQ(rig.a->stats().dropped(), 1u);
  EXPECT_EQ(rig.a->tx_datagrams(), 0u);
}

// ---- payload coalescing ----------------------------------------------------

TEST(UdpRuntime, OneCycleOfSendsCoalescesIntoOneDatagram) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n1 = rig.add(*rig.a, 1);
  EchoNode* n2 = rig.add(*rig.b, 2);
  EchoNode* n3 = rig.add(*rig.b, 3);
  // Four frames queued before the next poll, all bound for b's socket.
  n0->ping(2, "m0");
  n0->ping(3, "m1");
  n1->ping(2, "m2");
  n1->ping(3, "m3");
  ASSERT_TRUE(rig.pump(
      [&] { return n2->received.size() + n3->received.size() == 4; }));
  EXPECT_EQ(rig.a->tx_frames(), 4u);
  EXPECT_EQ(rig.a->tx_datagrams(), 1u);
  // Overhead accounting: one routing header plus one sub-header per frame.
  EXPECT_EQ(rig.a->header_bytes(), kHeaderSize + 4 * kSubHeaderSize);
  // Sub-frames route per their own (src, dst), in queue order.
  ASSERT_EQ(n2->received.size(), 2u);
  EXPECT_EQ(n2->received[0], (std::pair<NodeId, std::string>{0, "m0"}));
  EXPECT_EQ(n2->received[1], (std::pair<NodeId, std::string>{1, "m2"}));
  ASSERT_EQ(n3->received.size(), 2u);
  EXPECT_EQ(n3->received[0].second, "m1");
}

TEST(UdpRuntime, SingleFrameCyclesStayPlainV1Datagrams) {
  // With one frame per flush the coalescing path must emit the plain
  // single-frame datagram shape: header accounting shows no sub-frame
  // overhead.
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  rig.add(*rig.b, 2, /*echo=*/true);
  n0->ping(2, "one");
  ASSERT_TRUE(rig.pump([&] { return !n0->received.empty(); }));
  EXPECT_EQ(rig.a->tx_datagrams(), 1u);
  EXPECT_EQ(rig.a->tx_frames(), 1u);
  EXPECT_EQ(rig.a->header_bytes(), kHeaderSize * rig.a->tx_datagrams());
}

TEST(UdpRuntime, ReservedFlagBitsRejectTheDatagram) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  auto d = frame_datagram(2, 0, TextMsg("x"));
  d[3] = 0x02;  // reserved flag bit
  EXPECT_FALSE(rig.a->inject_datagram(d.data(), d.size()));
  d[3] = 0x03;  // coalesced + reserved: still rejected whole
  EXPECT_FALSE(rig.a->inject_datagram(d.data(), d.size()));
  EXPECT_TRUE(n0->received.empty());
  EXPECT_EQ(rig.a->rx_rejected(), 2u);
}

std::vector<std::uint8_t> coalesced_datagram(
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> d(kHeaderSize + payload.size());
  DatagramHeader h;
  h.src = 2;
  h.dst = 0;
  h.flags = kFlagCoalesced;
  h.payload_len = static_cast<std::uint16_t>(payload.size());
  encode_header(h, d.data());
  std::copy(payload.begin(), payload.end(), d.begin() + kHeaderSize);
  return d;
}

TEST(UdpRuntime, InjectedCoalescedPayloadDeliversEverySubframe) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n1 = rig.add(*rig.a, 1);
  const auto f0 = wire::encode(TextMsg("for0"));
  const auto f1 = wire::encode(TextMsg("for1"));
  std::vector<std::uint8_t> payload;
  append_subframe(payload, 2, 0, f0.data(), f0.size());
  append_subframe(payload, 3, 1, f1.data(), f1.size());
  auto d = coalesced_datagram(payload);
  EXPECT_TRUE(rig.a->inject_datagram(d.data(), d.size()));
  ASSERT_EQ(n0->received.size(), 1u);
  EXPECT_EQ(n0->received[0], (std::pair<NodeId, std::string>{2, "for0"}));
  ASSERT_EQ(n1->received.size(), 1u);
  EXPECT_EQ(n1->received[0], (std::pair<NodeId, std::string>{3, "for1"}));
  EXPECT_EQ(rig.a->rx_rejected(), 0u);
}

TEST(UdpRuntime, BadTilingDeliversThePrefixAndRejectsTheRest) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  const auto f0 = wire::encode(TextMsg("ok"));
  std::vector<std::uint8_t> payload;
  append_subframe(payload, 2, 0, f0.data(), f0.size());
  payload.push_back(0xAA);  // trailing byte: not a sub-header
  auto d = coalesced_datagram(payload);
  // Prefix-delivered-stays-delivered (UDP partial-loss semantics), but the
  // malformed remainder meters a rejection.
  EXPECT_TRUE(rig.a->inject_datagram(d.data(), d.size()));
  ASSERT_EQ(n0->received.size(), 1u);
  EXPECT_EQ(rig.a->rx_rejected(), 1u);
}

TEST(UdpRuntime, SyscallCountersTrackBatchedSends) {
  Rig rig;
  EchoNode* n0 = rig.add(*rig.a, 0);
  EchoNode* n2 = rig.add(*rig.b, 2);
  EchoNode* n3 = rig.add(*rig.b, 3);
  n0->ping(2, "x");
  n0->ping(3, "y");
  ASSERT_TRUE(rig.pump(
      [&] { return n2->received.size() + n3->received.size() == 2; }));
  // Both frames left in one coalesced datagram = one batched send call;
  // a receives nothing, so only b pays receive syscalls.
  EXPECT_EQ(rig.a->tx_syscalls(), 1u);
  EXPECT_EQ(rig.a->rx_syscalls(), 0u);
  EXPECT_GT(rig.b->rx_syscalls(), 0u);
  EXPECT_EQ(rig.a->using_epoll(), have_epoll());
}

// ---- hostile descriptor ids -----------------------------------------------

/// Counts every message it receives, whatever its kind.
class CountingNode final : public Node {
 public:
  void on_message(NodeId, const Message&) override { ++received; }
  int received = 0;
};

TEST(UdpRuntime, HostileDescriptorIdLeavesTheStoreUnchanged) {
  // Like a deploy child, the process registers every node's row up front,
  // so an id past the store's rows can only come from a hostile frame.
  const auto space = AttributeSpace::uniform(2, 3, 0, 80);
  DescriptorStore store(space);
  for (NodeId id = 0; id < 4; ++id)
    store.put(id, {static_cast<AttrValue>(10 + 20 * id), 40});
  ProtocolConfig cfg;
  cfg.gossip_enabled = false;
  Rig rig;
  rig.a->add_node(0, std::make_unique<SelectionNode>(
                         space, store, store.point_of(0), cfg,
                         std::vector<PeerDescriptor>{}, Rng(1)));
  auto peer = std::make_unique<CountingNode>();
  CountingNode* p2 = peer.get();
  rig.b->add_node(2, std::move(peer));
  const std::size_t rows = store.size();
  const std::size_t bytes = store.memory_bytes();

  CyclonShuffleMsg hostile;
  hostile.entries.push_back(PeerDescriptor{2, store.point_of(2)});
  hostile.entries.push_back(PeerDescriptor{1'000'000, {15, 15}});
  auto d = frame_datagram(2, 0, hostile);
  rig.a->inject_datagram(d.data(), d.size());
  EXPECT_EQ(rig.a->metrics().node_value(0, "wire.decode_fail"), 1u);
  EXPECT_EQ(store.size(), rows);
  EXPECT_EQ(store.memory_bytes(), bytes);

  // The node keeps answering: a well-formed exchange gets its reply.
  CyclonShuffleMsg good;
  good.entries.push_back(PeerDescriptor{2, store.point_of(2)});
  d = frame_datagram(2, 0, good);
  rig.a->inject_datagram(d.data(), d.size());
  ASSERT_TRUE(rig.pump([&] { return p2->received > 0; }));
  EXPECT_EQ(p2->received, 1);
  EXPECT_EQ(rig.a->metrics().total("wire.decode_fail"), 1u);
  EXPECT_EQ(store.size(), rows);
}

}  // namespace
}  // namespace ares::net
