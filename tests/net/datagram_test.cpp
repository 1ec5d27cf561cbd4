#include "net/datagram.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "net/process.h"
#include "net/udp_runtime.h"
#include "runtime/wire.h"

namespace ares::net {
namespace {

std::vector<std::uint8_t> make_datagram(const DatagramHeader& h,
                                        std::size_t payload) {
  std::vector<std::uint8_t> d(kHeaderSize + payload);
  encode_header(h, d.data());
  for (std::size_t i = 0; i < payload; ++i)
    d[kHeaderSize + i] = static_cast<std::uint8_t>(i * 7 + 1);
  return d;
}

TEST(Datagram, HeaderRoundTrips) {
  DatagramHeader h;
  h.src = 42;
  h.dst = 7;
  h.payload_len = 5;
  auto d = make_datagram(h, 5);
  DatagramHeader out;
  ASSERT_TRUE(decode_header(d.data(), d.size(), out));
  EXPECT_EQ(out.src, 42u);
  EXPECT_EQ(out.dst, 7u);
  EXPECT_EQ(out.payload_len, 5u);
  EXPECT_EQ(out.flags, 0u);
}

TEST(Datagram, ExtremeIdsRoundTrip) {
  DatagramHeader h;
  h.src = 0;
  h.dst = kInvalidNode;
  h.payload_len = 0;
  auto d = make_datagram(h, 0);
  DatagramHeader out;
  ASSERT_TRUE(decode_header(d.data(), d.size(), out));
  EXPECT_EQ(out.src, 0u);
  EXPECT_EQ(out.dst, kInvalidNode);
}

TEST(Datagram, WireLayoutIsLittleEndian) {
  DatagramHeader h;
  h.src = 0x01020304;
  h.dst = 0x0A0B0C0D;
  h.payload_len = 0x1234;
  std::uint8_t buf[kHeaderSize];
  encode_header(h, buf);
  EXPECT_EQ(buf[0], 0xE5);  // magic 0xA7E5 LE
  EXPECT_EQ(buf[1], 0xA7);
  EXPECT_EQ(buf[2], kVersion);
  EXPECT_EQ(buf[3], 0x00);  // flags
  EXPECT_EQ(buf[4], 0x04);  // src LE
  EXPECT_EQ(buf[7], 0x01);
  EXPECT_EQ(buf[8], 0x0D);  // dst LE
  EXPECT_EQ(buf[11], 0x0A);
  EXPECT_EQ(buf[12], 0x34);  // payload_len LE
  EXPECT_EQ(buf[13], 0x12);
}

TEST(Datagram, RejectsTruncation) {
  auto d = make_datagram({1, 2, 0, 8}, 8);
  DatagramHeader out;
  ASSERT_TRUE(decode_header(d.data(), d.size(), out));
  // Every shorter length must fail: either too short for a header or a
  // payload_len disagreement.
  for (std::size_t len = 0; len < d.size(); ++len)
    EXPECT_FALSE(decode_header(d.data(), len, out)) << "len=" << len;
}

TEST(Datagram, RejectsBadMagic) {
  auto d = make_datagram({1, 2, 0, 4}, 4);
  d[0] ^= 0xFF;
  DatagramHeader out;
  EXPECT_FALSE(decode_header(d.data(), d.size(), out));
}

TEST(Datagram, RejectsUnknownVersion) {
  auto d = make_datagram({1, 2, 0, 4}, 4);
  d[2] = kVersion + 1;
  DatagramHeader out;
  EXPECT_FALSE(decode_header(d.data(), d.size(), out));

  // A version-1 peer's CYCLON request: same kind tag, plain descriptor-list
  // body. Its second entry's id (0x100) has low byte 0, which the current
  // codec would read as a delta-entry flag; the header must stop it first.
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(wire::Kind::kCyclonRequest));
  w.varint(2);
  for (std::uint32_t id : {5u, 0x100u}) {
    w.u32(id);
    w.u32(7);  // age
    w.varint(3);
    for (std::uint64_t v : {10, 20, 30}) w.u64(v);
    w.varint(3);
    for (std::uint32_t c : {1, 2, 3}) w.u32(c);
  }
  const std::vector<std::uint8_t>& frame = w.bytes();
  std::vector<std::uint8_t> v1(kHeaderSize);
  encode_header({2, 0, 0, static_cast<std::uint16_t>(frame.size())}, v1.data());
  v1.insert(v1.end(), frame.begin(), frame.end());
  v1[2] = 1;
  EXPECT_FALSE(decode_header(v1.data(), v1.size(), out));

  const int fd = udp_bind_loopback();
  ASSERT_GE(fd, 0);
  AddressBook book;
  book.set(0, {0x7F000001, local_port(fd)});
  UdpRuntime rt(fd, book, {});
  EXPECT_FALSE(rt.inject_datagram(v1.data(), v1.size()));
  EXPECT_EQ(rt.rx_rejected(), 1u);
  // Rejected at the header: the codec never saw the frame.
  EXPECT_EQ(rt.metrics().total("wire.decode_fail"), 0u);
}

/// Counts what reaches it, whatever the kind.
class Inbox final : public Node {
 public:
  void on_message(NodeId, const Message&) override { ++received; }
  int received = 0;
};

TEST(Datagram, RejectsVersionTwoAtTheHeader) {
  // A version-2 peer's select.reply: two records, each a fixed u32 id, a
  // varint dimensionality and u64 values. Version 3 reads the same tag as
  // id gaps and varint values, so the codec would misparse it (here as
  // 5-dimensional records whose first id gap is zero); the header must
  // stop it first.
  wire::Writer w;
  w.u8(static_cast<std::uint8_t>(wire::Kind::kReply));
  w.u64(0x0102030405060708ULL);
  w.u8(1);  // complete
  w.varint(2);
  for (std::uint32_t id : {5u, 6u}) {
    w.u32(id);
    w.varint(3);
    for (std::uint64_t v : {10, 20, 30}) w.u64(v);
  }
  const std::vector<std::uint8_t>& frame = w.bytes();
  std::vector<std::uint8_t> d(kHeaderSize);
  encode_header({2, 0, 0, static_cast<std::uint16_t>(frame.size())}, d.data());
  d.insert(d.end(), frame.begin(), frame.end());

  const int fd = udp_bind_loopback();
  ASSERT_GE(fd, 0);
  AddressBook book;
  book.set(0, {0x7F000001, local_port(fd)});
  UdpRuntime rt(fd, book, {});
  auto inbox = std::make_unique<Inbox>();
  const Inbox* node = inbox.get();
  rt.add_node(0, std::move(inbox));

  // Under the current version the frame reaches the codec, which drops it.
  EXPECT_FALSE(rt.inject_datagram(d.data(), d.size()));
  EXPECT_EQ(rt.metrics().node_value(0, "wire.decode_fail"), 1u);
  EXPECT_EQ(rt.rx_rejected(), 0u);

  // Stamped version 2, as its sender would, it never gets that far.
  d[2] = 2;
  EXPECT_FALSE(rt.inject_datagram(d.data(), d.size()));
  EXPECT_EQ(rt.rx_rejected(), 1u);
  EXPECT_EQ(rt.metrics().node_value(0, "wire.decode_fail"), 1u);
  EXPECT_EQ(node->received, 0);
}

TEST(Datagram, RejectsLengthFieldMismatch) {
  auto d = make_datagram({1, 2, 0, 4}, 4);
  d[12] = 3;  // claims 3 payload bytes, datagram carries 4
  DatagramHeader out;
  EXPECT_FALSE(decode_header(d.data(), d.size(), out));
}

TEST(Datagram, RejectsOversizeLength) {
  DatagramHeader out;
  std::vector<std::uint8_t> d(kMaxDatagram + 1, 0);
  encode_header({1, 2, 0, 0}, d.data());
  EXPECT_FALSE(decode_header(d.data(), d.size(), out));
}

// ---- coalesced payloads (flags bit 0) --------------------------------------

std::vector<std::uint8_t> frame_of(std::size_t len, std::uint8_t seed) {
  std::vector<std::uint8_t> f(len);
  for (std::size_t i = 0; i < len; ++i)
    f[i] = static_cast<std::uint8_t>(seed + i * 3);
  return f;
}

TEST(Subframe, AppendThenParseRoundTripsTriples) {
  const auto f0 = frame_of(5, 1);
  const auto f1 = frame_of(0, 0);  // empty frames are legal sub-frames
  const auto f2 = frame_of(300, 9);
  std::vector<std::uint8_t> payload;
  append_subframe(payload, 10, 20, f0.data(), f0.size());
  append_subframe(payload, 11, 21, f1.data(), f1.size());
  append_subframe(payload, 0xFFFFFFFF, 0, f2.data(), f2.size());
  EXPECT_EQ(payload.size(), 3 * kSubHeaderSize + f0.size() + f1.size() + f2.size());

  SubframeParser p(payload.data(), payload.size());
  SubFrame s;
  ASSERT_TRUE(p.next(s));
  EXPECT_EQ(s.src, 10u);
  EXPECT_EQ(s.dst, 20u);
  ASSERT_EQ(s.frame_len, f0.size());
  EXPECT_EQ(std::memcmp(s.frame, f0.data(), f0.size()), 0);
  ASSERT_TRUE(p.next(s));
  EXPECT_EQ(s.src, 11u);
  EXPECT_EQ(s.frame_len, 0u);
  ASSERT_TRUE(p.next(s));
  EXPECT_EQ(s.src, 0xFFFFFFFFu);
  EXPECT_EQ(s.dst, 0u);
  ASSERT_EQ(s.frame_len, f2.size());
  EXPECT_EQ(std::memcmp(s.frame, f2.data(), f2.size()), 0);
  EXPECT_FALSE(p.next(s));
  EXPECT_TRUE(p.ok());
}

TEST(Subframe, EmptyPayloadParsesCleanToNothing) {
  SubframeParser p(nullptr, 0);
  SubFrame s;
  EXPECT_FALSE(p.next(s));
  EXPECT_TRUE(p.ok());
}

TEST(Subframe, TruncatedSubHeaderFailsNotOk) {
  const auto f0 = frame_of(4, 2);
  std::vector<std::uint8_t> payload;
  append_subframe(payload, 1, 2, f0.data(), f0.size());
  payload.resize(payload.size() + kSubHeaderSize - 1);  // partial next header
  SubframeParser p(payload.data(), payload.size());
  SubFrame s;
  ASSERT_TRUE(p.next(s));  // the intact prefix still parses (UDP semantics)
  EXPECT_FALSE(p.next(s));
  EXPECT_FALSE(p.ok());
}

TEST(Subframe, FrameLengthOverrunningPayloadFailsNotOk) {
  const auto f0 = frame_of(8, 3);
  std::vector<std::uint8_t> payload;
  append_subframe(payload, 1, 2, f0.data(), f0.size());
  // Claim one more frame byte than the payload holds.
  payload[8] = static_cast<std::uint8_t>(f0.size() + 1);
  SubframeParser p(payload.data(), payload.size());
  SubFrame s;
  EXPECT_FALSE(p.next(s));
  EXPECT_FALSE(p.ok());
}

TEST(Subframe, EveryTruncationEndsNotOkOrAtBoundary) {
  std::vector<std::uint8_t> payload;
  const auto f0 = frame_of(6, 4);
  const auto f1 = frame_of(3, 5);
  append_subframe(payload, 1, 2, f0.data(), f0.size());
  append_subframe(payload, 3, 4, f1.data(), f1.size());
  const std::size_t boundary = kSubHeaderSize + f0.size();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    SubframeParser p(payload.data(), len);
    SubFrame s;
    while (p.next(s)) {
    }
    // ok() only at exact sub-frame boundaries; every mid-entry cut is
    // malformed and must be flagged.
    EXPECT_EQ(p.ok(), len == 0 || len == boundary) << "len=" << len;
  }
}

TEST(Subframe, CoalescedHeaderFlagSurvivesHeaderRoundTrip) {
  DatagramHeader h{1, 2, kFlagCoalesced, 20};
  std::vector<std::uint8_t> d(kHeaderSize + 20, 0);
  encode_header(h, d.data());
  DatagramHeader out;
  ASSERT_TRUE(decode_header(d.data(), d.size(), out));
  EXPECT_EQ(out.flags, kFlagCoalesced);
  // decode_header returns flags as-is; reserved-bit enforcement is the
  // runtime's job (UdpRuntime rejects flags & ~kFlagCoalesced).
  d[3] = 0x02;
  ASSERT_TRUE(decode_header(d.data(), d.size(), out));
  EXPECT_EQ(out.flags, 0x02);
}

}  // namespace
}  // namespace ares::net
