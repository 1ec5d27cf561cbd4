// Golden-frame pins for the gossip exchange and select-path messages.
//
// Every frame is a 1-byte wire::Kind tag plus the kind's body. The gossip
// kinds carry delta-coded descriptor lists (docs/PROTOCOL.md
// §"Descriptor-list encoding"): the first descriptor travels in full — id,
// age and values, 33 bytes where the paper's plain layout adds 13 bytes of
// cell coordinates — and every later one as deltas against it. Reply
// records travel as varint id gaps and values (§"Reply records").
// Encoding these logical messages must reproduce the bytes exactly, and
// decoding them must reproduce the field values. If this test fails, the
// wire format changed — that breaks recorded-trace compatibility and the
// paper's byte accounting, so it must be deliberate and versioned
// (net::kVersion), never a side effect of a refactor. Version 3 re-pinned
// every gossip frame and the non-empty reply.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/messages.h"
#include "gossip/cyclon.h"
#include "gossip/vicinity.h"
#include "runtime/wire.h"

namespace ares {
namespace {

// One descriptor exercises every field width: small id / huge id, varint
// point length, u64 values beyond 32 bits.
PeerDescriptor golden_descriptor(NodeId id, std::uint32_t age) {
  PeerDescriptor d;
  d.id = id;
  d.age = age;
  d.values = Point{10, 2000, 300000000000ULL};
  return d;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  return out;
}

// 25-byte descriptor body (after id and age) shared by all four frames:
//   |values|=3(varint) 3*u64
const char* const kDescBody = "030a00000000000000d00700000000000000b864d945000000";

const std::string kDesc5Age0 = std::string("0500000000000000") + kDescBody;
const std::string kDesc7Age1 = std::string("0700000001000000") + kDescBody;

// Second entry as deltas against the first: flags=0 (delta), id
// 0xDEADBEEF-5 and age +42 as zig-zag varints, then an empty value bitmap
// (every value equals the reference's).
const std::string kDeltaBeefAge42 = "00" "ab84929504" "54" "00";

// kind tag, count=2, the reference, then the delta entry (43 bytes total;
// the paper's plain layout of the same list is 94).
const std::string kCyclonRequestHex = "0102" + kDesc5Age0 + kDeltaBeefAge42;
// kind tag, count=1, one descriptor in full (35 bytes total).
const std::string kCyclonReplyHex = "0201" + kDesc7Age1;
const std::string kVicinityRequestHex = "0302" + kDesc5Age0 + kDeltaBeefAge42;
const std::string kVicinityReplyHex = "0401" + kDesc7Age1;

void check_decoded_entries(const std::vector<PeerDescriptor>& entries,
                           bool two_entry_frame) {
  ASSERT_EQ(entries.size(), two_entry_frame ? 2u : 1u);
  const PeerDescriptor want =
      two_entry_frame ? golden_descriptor(5, 0) : golden_descriptor(7, 1);
  EXPECT_EQ(entries[0].id, want.id);
  EXPECT_EQ(entries[0].age, want.age);
  EXPECT_EQ(entries[0].values, want.values);
  if (two_entry_frame) {
    EXPECT_EQ(entries[1].id, 0xDEADBEEFu);
    EXPECT_EQ(entries[1].age, 42u);
    EXPECT_EQ(entries[1].values, want.values);
  }
}

TEST(GoldenFrames, CyclonRequestBytesUnchanged) {
  CyclonShuffleMsg m;
  m.is_reply = false;
  m.entries.push_back(golden_descriptor(5, 0));
  m.entries.push_back(golden_descriptor(0xDEADBEEF, 42));
  EXPECT_EQ(to_hex(wire::encode(m)), kCyclonRequestHex);
  EXPECT_EQ(m.wire_size(), kCyclonRequestHex.size() / 2);
  EXPECT_EQ(m.wire_size(), 43u);
  EXPECT_EQ(wire::paper_layout_savings(m), 94u - 43u);
}

TEST(GoldenFrames, CyclonReplyBytesUnchanged) {
  CyclonShuffleMsg m;
  m.is_reply = true;
  m.entries.push_back(golden_descriptor(7, 1));
  EXPECT_EQ(to_hex(wire::encode(m)), kCyclonReplyHex);
}

TEST(GoldenFrames, VicinityRequestBytesUnchanged) {
  VicinityExchangeMsg m;
  m.is_reply = false;
  m.entries.push_back(golden_descriptor(5, 0));
  m.entries.push_back(golden_descriptor(0xDEADBEEF, 42));
  EXPECT_EQ(to_hex(wire::encode(m)), kVicinityRequestHex);
}

TEST(GoldenFrames, VicinityReplyBytesUnchanged) {
  VicinityExchangeMsg m;
  m.is_reply = true;
  m.entries.push_back(golden_descriptor(7, 1));
  EXPECT_EQ(to_hex(wire::encode(m)), kVicinityReplyHex);
}

TEST(GoldenFrames, PinnedFramesDecodeToOriginalFields) {
  struct Case {
    const std::string& hex;
    bool is_vicinity;
    bool is_reply;
  };
  const Case cases[] = {
      {kCyclonRequestHex, false, false},
      {kCyclonReplyHex, false, true},
      {kVicinityRequestHex, true, false},
      {kVicinityReplyHex, true, true},
  };
  for (const auto& c : cases) {
    MessagePtr m = wire::decode(from_hex(c.hex));
    ASSERT_NE(m, nullptr) << c.hex;
    if (c.is_vicinity) {
      const auto* v = dynamic_cast<const VicinityExchangeMsg*>(m.get());
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(v->is_reply, c.is_reply);
      check_decoded_entries(v->entries, !c.is_reply);
    } else {
      const auto* s = dynamic_cast<const CyclonShuffleMsg*>(m.get());
      ASSERT_NE(s, nullptr);
      EXPECT_EQ(s->is_reply, c.is_reply);
      check_decoded_entries(s->entries, !c.is_reply);
    }
  }
}

// A two-entry exchange whose second entry differs from the reference in
// some values: id +1 and age +1 (zig-zag 02), value bitmap 0b011 with
// deltas +1/-1.
std::vector<PeerDescriptor> delta_golden_entries() {
  std::vector<PeerDescriptor> v;
  v.push_back({5, Point{10, 2000, 300000000000ULL}, 0});
  v.push_back({6, Point{11, 1999, 300000000000ULL}, 1});
  return v;
}

const std::string kCyclonDeltaHex = "0102" + kDesc5Age0 +
                                    "00"       // entry 1: flags = delta
                                    "0202"     // id +1, age +1 (zig-zag)
                                    "030201";  // value bitmap 0b011, +1, -1

TEST(DeltaGoldenFrames, CyclonRequestDeltaBytesPinned) {
  CyclonShuffleMsg m;
  m.entries = delta_golden_entries();
  EXPECT_EQ(to_hex(wire::encode(m)), kCyclonDeltaHex);
  EXPECT_EQ(m.wire_size(), kCyclonDeltaHex.size() / 2);
}

TEST(DeltaGoldenFrames, PinnedDeltaFrameDecodesToOriginalFields) {
  MessagePtr m = wire::decode(from_hex(kCyclonDeltaHex));
  ASSERT_NE(m, nullptr);
  const auto* s = dynamic_cast<const CyclonShuffleMsg*>(m.get());
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->is_reply);
  const auto want = delta_golden_entries();
  ASSERT_EQ(s->entries.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(s->entries[i].id, want[i].id);
    EXPECT_EQ(s->entries[i].age, want[i].age);
    EXPECT_EQ(s->entries[i].values, want[i].values);
  }
}

// ---- select-path frames (query / reply / progress) -------------------------
//
// Pinned when ReplyMsg grew its `complete` flag (the u8 after the id), and
// the non-empty reply again when records became id gaps and varint values
// (69 bytes before, 30 now). These freeze the serving-path wire format: the
// reply flag, the record body, sigma-infinity and level -1 encodings, and
// dynamic filters all have exactly one byte layout.

QueryMsg golden_query(std::uint32_t sigma, int level, std::uint32_t mask) {
  QueryMsg q;
  q.id = 0x0102030405060708ULL;
  q.reply_to = 9;
  q.origin = 3;
  q.sigma = sigma;
  q.level = level;
  q.dims_mask = mask;
  q.query = RangeQuery::any(3).with(0, 40, std::nullopt).with(2, 7, 9);
  q.query.with_dynamic(1, 100, 200);
  return q;
}

const char* const kQueryHex =
    "05080706050403020109000000030000003200000003050000000301280000000107010901"
    "01016401c801";
const char* const kQueryNoSigmaHex =
    "0508070605040302010900000003000000ffffffff000000000003012800000001070109010"
    "1016401c801";
// tag, id, complete=1, count=2, dims=3, then per record the id gap (5+1,
// 0xDEADBEEF-5) and three varint values.
const char* const kReplyCompleteHex =
    "06080706050403020101020306"
    "0ad00f80f092cbdd08"  // 10, 2000, 300000000000
    "eafdb6f50d010203";
const char* const kReplyIncompleteEmptyHex = "0608070605040302010000";
const char* const kProgressHex = "070807060504030201";

TEST(GoldenFrames, QueryBytesUnchanged) {
  EXPECT_EQ(to_hex(wire::encode(golden_query(50, 2, 0b101))), kQueryHex);
  EXPECT_EQ(to_hex(wire::encode(golden_query(kNoSigma, -1, 0))),
            kQueryNoSigmaHex);
}

TEST(GoldenFrames, ReplyBytesUnchanged) {
  ReplyMsg r;
  r.id = 0x0102030405060708ULL;
  r.complete = true;
  r.matching = {{5, {10, 2000, 300000000000ULL}}, {0xDEADBEEF, {1, 2, 3}}};
  EXPECT_EQ(to_hex(wire::encode(r)), kReplyCompleteHex);
  EXPECT_EQ(r.wire_size(), 30u);
  ReplyMsg empty;
  empty.id = 0x0102030405060708ULL;
  empty.complete = false;
  EXPECT_EQ(to_hex(wire::encode(empty)), kReplyIncompleteEmptyHex);
}

TEST(GoldenFrames, ProgressBytesUnchanged) {
  ProgressMsg p;
  p.id = 0x0102030405060708ULL;
  EXPECT_EQ(to_hex(wire::encode(p)), kProgressHex);
}

TEST(GoldenFrames, PinnedSelectFramesDecodeToOriginalFields) {
  MessagePtr qm = wire::decode(from_hex(kQueryHex));
  ASSERT_NE(qm, nullptr);
  const auto* q = dynamic_cast<const QueryMsg*>(qm.get());
  ASSERT_NE(q, nullptr);
  const QueryMsg want = golden_query(50, 2, 0b101);
  EXPECT_EQ(q->id, want.id);
  EXPECT_EQ(q->sigma, 50u);
  EXPECT_EQ(q->level, 2);
  EXPECT_EQ(q->dims_mask, 0b101u);
  EXPECT_EQ(q->query, want.query);

  MessagePtr rm = wire::decode(from_hex(kReplyCompleteHex));
  ASSERT_NE(rm, nullptr);
  const auto* r = dynamic_cast<const ReplyMsg*>(rm.get());
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->complete);
  ASSERT_EQ(r->matching.size(), 2u);
  EXPECT_EQ(r->matching[0].id, 5u);
  EXPECT_EQ(r->matching[0].values, (Point{10, 2000, 300000000000ULL}));
  EXPECT_EQ(r->matching[1].id, 0xDEADBEEFu);
  EXPECT_EQ(r->matching[1].values, (Point{1, 2, 3}));

  MessagePtr im = wire::decode(from_hex(kReplyIncompleteEmptyHex));
  ASSERT_NE(im, nullptr);
  const auto* i = dynamic_cast<const ReplyMsg*>(im.get());
  ASSERT_NE(i, nullptr);
  EXPECT_FALSE(i->complete);
  EXPECT_TRUE(i->matching.empty());
}

TEST(GoldenFrames, OverCapacityPointCountFailsDecodeCleanly) {
  // A frame claiming a point one past the inline capacity must decode to
  // nullptr — never throw from InlineVec — even with enough payload bytes.
  constexpr std::size_t n = Point::max_size() + 1;
  std::string hex = std::string("0201") + "0500000000000000";
  hex.push_back("0123456789abcdef"[n >> 4]);
  hex.push_back("0123456789abcdef"[n & 0xF]);
  for (std::size_t i = 0; i < n; ++i) hex += "0a00000000000000";
  EXPECT_EQ(wire::decode(from_hex(hex)), nullptr);
}

}  // namespace
}  // namespace ares
