#include "wire/codecs.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ares::wire {
namespace {

// ---- buffer primitives ----------------------------------------------------

TEST(WireBuffer, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WireBuffer, VarintRoundTripSweep) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
        0xFFFFFFFFull, ~0ull}) {
    Writer w;
    w.varint(v);
    Reader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(WireBuffer, VarintCompactness) {
  Writer w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  Writer w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(WireBuffer, SizerCountsWhatTheWriterStores) {
  // The Sizer counts a varint without looping over its bytes: check it
  // against the stored bytes at both ends of every bit width, and every
  // other primitive once.
  for (int bits = 0; bits <= 64; ++bits) {
    const std::uint64_t low = bits == 0 ? 0 : std::uint64_t{1} << (bits - 1);
    const std::uint64_t high = bits == 0 ? 0 : ~0ull >> (64 - bits);
    for (std::uint64_t v : {low, high}) {
      Writer w;
      Sizer s;
      w.varint(v);
      s.varint(v);
      EXPECT_EQ(s.size(), w.size()) << "varint " << v;
    }
  }
  auto put = [](auto& sink) {
    sink.u8(1);
    sink.u16(2);
    sink.u32(3);
    sink.u64(4);
    sink.f64(0.5);
    sink.opt_u64(std::nullopt);
    sink.opt_u64(300);
    sink.str("abc");
  };
  Writer w;
  Sizer s;
  put(w);
  put(s);
  EXPECT_EQ(s.size(), w.size());
}

TEST(WireBuffer, OptionalRoundTrip) {
  Writer w;
  w.opt_u64(std::nullopt);
  w.opt_u64(42);
  Reader r(w.bytes());
  EXPECT_EQ(r.opt_u64(), std::nullopt);
  EXPECT_EQ(r.opt_u64(), std::optional<std::uint64_t>(42));
  EXPECT_TRUE(r.ok());
}

TEST(WireBuffer, StringRoundTrip) {
  Writer w;
  w.str("hello world");
  w.str("");
  std::string with_nul("a\0b", 3);
  w.str(with_nul);
  Reader r(w.bytes());
  EXPECT_EQ(r.str(), "hello world");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), with_nul);  // embedded NULs survive
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(WireBuffer, TruncatedReadSetsError) {
  Writer w;
  w.u16(7);
  Reader r(w.bytes());
  r.u32();  // more than available
  EXPECT_FALSE(r.ok());
}

TEST(WireBuffer, StickyErrorNeverRecovers) {
  Reader r(nullptr, 0);
  r.u8();
  EXPECT_FALSE(r.ok());
  // Subsequent reads stay failed and return zero.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireBuffer, OversizedVarintRejected) {
  Writer w;
  for (int i = 0; i < 11; ++i) w.u8(0x80);  // continuation forever
  Reader r(w.bytes());
  r.varint();
  EXPECT_FALSE(r.ok());

  // Ten bytes whose last one carries bits past 63: they would be dropped,
  // so two byte strings would read as one value.
  Writer past;
  for (int i = 0; i < 9; ++i) past.u8(0xFF);
  past.u8(0x7F);
  Reader rp(past.bytes());
  rp.varint();
  EXPECT_FALSE(rp.ok());

  Writer max;  // the largest value still reads
  max.varint(~std::uint64_t{0});
  ASSERT_EQ(max.size(), 10u);
  Reader rm(max.bytes());
  EXPECT_EQ(rm.varint(), ~std::uint64_t{0});
  EXPECT_TRUE(rm.ok());
}

TEST(WireBuffer, BadPresenceByteRejected) {
  Writer w;
  w.u8(7);  // presence must be 0/1
  Reader r(w.bytes());
  r.opt_u64();
  EXPECT_FALSE(r.ok());
}

TEST(WireBuffer, CountBombRejected) {
  Writer w;
  w.varint(1'000'000);  // claims a million elements in a 3-byte buffer
  Reader r(w.bytes());
  r.count(4);
  EXPECT_FALSE(r.ok());
}

// ---- message codecs ---------------------------------------------------------

PeerDescriptor sample_descriptor(NodeId id) {
  return PeerDescriptor{id, {10, 20, 30}, 4};
}

template <typename T>
std::unique_ptr<T> round_trip(const T& msg) {
  auto bytes = encode(msg);
  EXPECT_FALSE(bytes.empty());
  MessagePtr decoded = decode(bytes);
  EXPECT_NE(decoded, nullptr);
  auto* typed = dynamic_cast<T*>(decoded.get());
  EXPECT_NE(typed, nullptr);
  if (typed == nullptr) return nullptr;
  decoded.release();
  return std::unique_ptr<T>(typed);
}

TEST(WireCodec, CyclonRoundTrip) {
  CyclonShuffleMsg m;
  m.is_reply = true;
  m.entries = {sample_descriptor(1), sample_descriptor(2)};
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->is_reply);
  ASSERT_EQ(out->entries.size(), 2u);
  EXPECT_EQ(out->entries[0].id, 1u);
  EXPECT_EQ(out->entries[1].values, (Point{10, 20, 30}));
  EXPECT_EQ(out->entries[1].age, 4u);
}

TEST(WireCodec, VicinityRoundTrip) {
  VicinityExchangeMsg m;
  m.is_reply = false;
  m.entries = {sample_descriptor(9)};
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_FALSE(out->is_reply);
  EXPECT_EQ(out->entries.size(), 1u);
}

TEST(WireCodec, MixedDimensionalityFallsBackToFullEntries) {
  // Entries whose dimensionality differs from the reference (entry 0)
  // travel as full descriptors (flags=1); the rest as deltas.
  VicinityExchangeMsg m;
  m.entries.push_back({1, Point{10, 20, 30}, 4});
  m.entries.push_back({2, Point{11, 19}, 5});  // fewer dims
  m.entries.push_back({3, Point{}, 6});        // empty
  m.entries.push_back({4, Point{12, 21, 29}, 0});
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->entries.size(), m.entries.size());
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    EXPECT_EQ(out->entries[i].id, m.entries[i].id);
    EXPECT_EQ(out->entries[i].age, m.entries[i].age);
    EXPECT_EQ(out->entries[i].values, m.entries[i].values);
  }
}

TEST(WireCodec, QueryRoundTrip) {
  QueryMsg m;
  m.id = 0xABCDEF0012345678ULL;
  m.reply_to = 17;
  m.origin = 3;
  m.sigma = 50;
  m.level = -1;
  m.dims_mask = 0b10110;
  m.query = RangeQuery::any(5)
                .with(0, 40, std::nullopt)
                .with(2, std::nullopt, 60)
                .with(4, 7, 9);
  m.query.with_dynamic(1, 100, 200);
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, m.id);
  EXPECT_EQ(out->reply_to, 17u);
  EXPECT_EQ(out->origin, 3u);
  EXPECT_EQ(out->sigma, 50u);
  EXPECT_EQ(out->level, -1);
  EXPECT_EQ(out->dims_mask, 0b10110u);
  EXPECT_EQ(out->query, m.query);
}

TEST(WireCodec, QuerySigmaInfinityRoundTrip) {
  QueryMsg m;
  m.sigma = kNoSigma;
  m.level = 3;
  m.query = RangeQuery::any(2);
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sigma, kNoSigma);
  EXPECT_EQ(out->level, 3);
}

TEST(WireCodec, ReplyRoundTrip) {
  ReplyMsg m;
  m.id = 99;
  m.complete = true;
  m.matching = {{5, {1, 2}}, {6, {3, 4}}};
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->complete);
  ASSERT_EQ(out->matching.size(), 2u);
  EXPECT_EQ(out->matching[1].id, 6u);
  EXPECT_EQ(out->matching[1].values, (Point{3, 4}));
}

TEST(WireCodec, ReplyIncompleteRoundTrip) {
  ReplyMsg m;
  m.id = 100;
  m.complete = false;
  m.matching = {{5, {1, 2}}};
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_FALSE(out->complete);
}

TEST(WireCodec, ReplyCompleteFlagMustBeCanonical) {
  // The flag is a strict 0/1 byte on the wire; any other value is a
  // malformed frame, not a silently-truthy bool.
  ReplyMsg m;
  m.id = 7;
  m.complete = true;
  auto bytes = encode(m);
  ASSERT_GT(bytes.size(), 10u);
  EXPECT_EQ(bytes[9], 1u);  // tag(1) + id(8), then the flag
  bytes[9] = 2;
  EXPECT_EQ(decode(bytes), nullptr);
}

TEST(WireCodec, EmptyReplyRoundTrip) {
  ReplyMsg m;
  m.id = 1;
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->matching.empty());
}

TEST(WireCodec, ProgressRoundTrip) {
  ProgressMsg m;
  m.id = 0x1122334455667788ULL;
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->id, m.id);
}

TEST(WireCodec, DhtPutRoundTrip) {
  DhtPutMsg m;
  m.key = 0xFEED;
  m.record = {12, {7, 8, 9}};
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->key, 0xFEEDu);
  EXPECT_EQ(out->record.node, 12u);
  EXPECT_EQ(out->record.values, (Point{7, 8, 9}));
}

TEST(WireCodec, DhtGetRoundTrip) {
  DhtGetMsg m;
  m.key = 5;
  m.origin = 77;
  m.request_id = 31337;
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->origin, 77u);
  EXPECT_EQ(out->request_id, 31337u);
}

TEST(WireCodec, DhtRecordsRoundTrip) {
  DhtRecordsMsg m;
  m.request_id = 8;
  m.key = 9;
  m.records = {{1, {2}}, {3, {4}}};
  auto out = round_trip(m);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->records.size(), 2u);
}

// ---- robustness ------------------------------------------------------------

TEST(WireCodec, UnknownKindRejected) {
  std::vector<std::uint8_t> bytes{0xEE, 1, 2, 3};
  EXPECT_EQ(decode(bytes), nullptr);
}

TEST(WireCodec, EmptyInputRejected) {
  EXPECT_EQ(decode(nullptr, 0), nullptr);
}

TEST(WireCodec, TrailingGarbageRejected) {
  ProgressMsg m;
  m.id = 1;
  auto bytes = encode(m);
  bytes.push_back(0x00);
  EXPECT_EQ(decode(bytes), nullptr);
}

TEST(WireCodec, EveryTruncationFailsCleanly) {
  // Exhaustive prefix truncation of a composite message: every prefix must
  // decode to nullptr (and never crash or over-read).
  QueryMsg m;
  m.id = 42;
  m.sigma = 50;
  m.level = 2;
  m.dims_mask = 0b11111;
  m.query = RangeQuery::any(5).with(1, 10, 20);
  m.query.with_dynamic(0, 1, 2);
  auto bytes = encode(m);
  ASSERT_GT(bytes.size(), 4u);
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_EQ(decode(bytes.data(), len), nullptr) << "prefix " << len;
}

TEST(WireCodec, RandomBytesNeverCrash) {
  Rng rng(1234);
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    // Any outcome is fine except UB; decode must be total.
    (void)decode(junk);
  }
  SUCCEED();
}

TEST(WireCodec, MutatedMessagesNeverCrash) {
  // Single-byte mutations of a valid frame: decode must either fail or
  // produce SOME message, never crash.
  ReplyMsg m;
  m.id = 5;
  m.matching = {{1, {10, 20}}, {2, {30, 40}}};
  auto bytes = encode(m);
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    auto copy = bytes;
    copy[rng.index(copy.size())] = static_cast<std::uint8_t>(rng.below(256));
    (void)decode(copy);
  }
  SUCCEED();
}

// ---- randomized per-kind round-trip property --------------------------------
//
// For EVERY registered wire::Kind: decode(encode(m)) must reproduce all
// fields, and the codec-derived wire_size() must equal the encoded frame
// length exactly — both on the original (lazily computed via the counting
// writer) and on the decoded copy (stamped from the arriving frame).

constexpr Kind kAllKinds[] = {
    Kind::kCyclonRequest, Kind::kCyclonReply,  Kind::kVicinityRequest,
    Kind::kVicinityReply, Kind::kQuery,        Kind::kReply,
    Kind::kProgress,      Kind::kDhtPut,       Kind::kDhtGet,
    Kind::kDhtRecords,    Kind::kFloodQuery,   Kind::kFloodHit,
    Kind::kSliceRequest,  Kind::kSliceReply,
};

Point rand_point(Rng& rng) {
  Point p(rng.below(6));
  for (auto& v : p) v = rng.next();
  return p;
}

PeerDescriptor rand_descriptor(Rng& rng) {
  return PeerDescriptor{static_cast<NodeId>(rng.below(100'000)), rand_point(rng),
                        static_cast<std::uint32_t>(rng.below(500))};
}

std::vector<PeerDescriptor> rand_descriptors(Rng& rng) {
  std::vector<PeerDescriptor> v(rng.below(10));
  for (auto& d : v) d = rand_descriptor(rng);
  return v;
}

RangeQuery rand_query(Rng& rng) {
  int dims = 1 + static_cast<int>(rng.below(8));
  auto q = RangeQuery::any(dims);
  for (int d = 0; d < dims; ++d) {
    std::optional<std::uint64_t> lo, hi;
    if (rng.below(2)) lo = rng.below(1000);
    if (rng.below(2)) hi = (lo ? *lo : 0) + rng.below(1000);
    q.with(d, lo, hi);
  }
  std::uint64_t filters = rng.below(3);
  for (std::uint64_t i = 0; i < filters; ++i)
    q.with_dynamic(rng.below(static_cast<std::uint64_t>(dims)),
                   rng.below(50), 50 + rng.below(50));
  return q;
}

MatchRecord rand_record(Rng& rng) {
  return MatchRecord{static_cast<NodeId>(rng.below(100'000)), rand_point(rng)};
}

/// A candidate set as a reply carries it: strictly ascending ids drawn from
/// the whole 32-bit range (the largest id included now and then), and one
/// dimensionality with full-width values.
std::vector<MatchRecord> rand_records(Rng& rng) {
  std::vector<NodeId> ids(rng.below(8));
  for (auto& id : ids) id = static_cast<NodeId>(rng.next());
  if (!ids.empty() && rng.below(4) == 0) ids.front() = kInvalidNode;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const std::size_t dims = rng.below(6);
  std::vector<MatchRecord> v;
  for (NodeId id : ids) {
    Point p(dims);
    for (auto& x : p) x = rng.next();
    v.push_back({id, p});
  }
  return v;
}

ResourceRecord rand_resource(Rng& rng) {
  return ResourceRecord{static_cast<NodeId>(rng.below(100'000)),
                        rand_point(rng)};
}

double rand_f64(Rng& rng) {
  return static_cast<double>(rng.below(1'000'000'000)) / 997.0;
}

MessagePtr make_random(Kind k, Rng& rng) {
  switch (k) {
    case Kind::kCyclonRequest:
    case Kind::kCyclonReply: {
      auto m = std::make_unique<CyclonShuffleMsg>();
      m->is_reply = k == Kind::kCyclonReply;
      m->entries = rand_descriptors(rng);
      return m;
    }
    case Kind::kVicinityRequest:
    case Kind::kVicinityReply: {
      auto m = std::make_unique<VicinityExchangeMsg>();
      m->is_reply = k == Kind::kVicinityReply;
      m->entries = rand_descriptors(rng);
      return m;
    }
    case Kind::kQuery: {
      auto m = std::make_unique<QueryMsg>();
      m->id = rng.next();
      m->reply_to = static_cast<NodeId>(rng.below(100'000));
      m->origin = static_cast<NodeId>(rng.below(100'000));
      m->sigma = rng.below(4) == 0 ? kNoSigma
                                   : static_cast<std::uint32_t>(rng.below(256));
      m->level = static_cast<int>(rng.below(12)) - 1;  // [-1, 10]
      m->dims_mask = static_cast<std::uint32_t>(rng.next());
      m->query = rand_query(rng);
      return m;
    }
    case Kind::kReply: {
      auto m = std::make_unique<ReplyMsg>();
      m->id = rng.next();
      m->complete = rng.below(2) == 1;
      m->matching = rand_records(rng);
      return m;
    }
    case Kind::kProgress: {
      auto m = std::make_unique<ProgressMsg>();
      m->id = rng.next();
      return m;
    }
    case Kind::kDhtPut: {
      auto m = std::make_unique<DhtPutMsg>();
      m->key = rng.next();
      m->record = rand_resource(rng);
      return m;
    }
    case Kind::kDhtGet: {
      auto m = std::make_unique<DhtGetMsg>();
      m->key = rng.next();
      m->origin = static_cast<NodeId>(rng.below(100'000));
      m->request_id = rng.next();
      return m;
    }
    case Kind::kDhtRecords: {
      auto m = std::make_unique<DhtRecordsMsg>();
      m->request_id = rng.next();
      m->key = rng.next();
      m->records.resize(rng.below(8));
      for (auto& rec : m->records) rec = rand_resource(rng);
      return m;
    }
    case Kind::kFloodQuery: {
      auto m = std::make_unique<FloodQueryMsg>();
      m->id = rng.next();
      m->origin = static_cast<NodeId>(rng.below(100'000));
      m->ttl = static_cast<int>(rng.below(16));
      m->query = rand_query(rng);
      return m;
    }
    case Kind::kFloodHit: {
      auto m = std::make_unique<FloodHitMsg>();
      m->id = rng.next();
      m->match = rand_record(rng);
      return m;
    }
    case Kind::kSliceRequest:
    case Kind::kSliceReply: {
      auto m = std::make_unique<SliceExchangeMsg>();
      m->is_reply = k == Kind::kSliceReply;
      m->attribute = rand_f64(rng);
      m->slice_value = rand_f64(rng);
      m->swapped = rng.below(2) == 1;
      return m;
    }
    default:
      ADD_FAILURE() << "no generator for kind " << static_cast<int>(k);
      return nullptr;
  }
}

void expect_descriptor_eq(const PeerDescriptor& a, const PeerDescriptor& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.age, b.age);
  EXPECT_EQ(a.values, b.values);
}

void expect_same(const Message& a, const Message& b) {
  ASSERT_EQ(a.kind(), b.kind());
  switch (a.kind()) {
    case Kind::kCyclonRequest:
    case Kind::kCyclonReply: {
      const auto& x = static_cast<const CyclonShuffleMsg&>(a);
      const auto& y = static_cast<const CyclonShuffleMsg&>(b);
      EXPECT_EQ(x.is_reply, y.is_reply);
      ASSERT_EQ(x.entries.size(), y.entries.size());
      for (std::size_t i = 0; i < x.entries.size(); ++i)
        expect_descriptor_eq(x.entries[i], y.entries[i]);
      return;
    }
    case Kind::kVicinityRequest:
    case Kind::kVicinityReply: {
      const auto& x = static_cast<const VicinityExchangeMsg&>(a);
      const auto& y = static_cast<const VicinityExchangeMsg&>(b);
      EXPECT_EQ(x.is_reply, y.is_reply);
      ASSERT_EQ(x.entries.size(), y.entries.size());
      for (std::size_t i = 0; i < x.entries.size(); ++i)
        expect_descriptor_eq(x.entries[i], y.entries[i]);
      return;
    }
    case Kind::kQuery: {
      const auto& x = static_cast<const QueryMsg&>(a);
      const auto& y = static_cast<const QueryMsg&>(b);
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.reply_to, y.reply_to);
      EXPECT_EQ(x.origin, y.origin);
      EXPECT_EQ(x.sigma, y.sigma);
      EXPECT_EQ(x.level, y.level);
      EXPECT_EQ(x.dims_mask, y.dims_mask);
      EXPECT_EQ(x.query, y.query);
      return;
    }
    case Kind::kReply: {
      const auto& x = static_cast<const ReplyMsg&>(a);
      const auto& y = static_cast<const ReplyMsg&>(b);
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.complete, y.complete);
      ASSERT_EQ(x.matching.size(), y.matching.size());
      for (std::size_t i = 0; i < x.matching.size(); ++i) {
        EXPECT_EQ(x.matching[i].id, y.matching[i].id);
        EXPECT_EQ(x.matching[i].values, y.matching[i].values);
      }
      return;
    }
    case Kind::kProgress:
      EXPECT_EQ(static_cast<const ProgressMsg&>(a).id,
                static_cast<const ProgressMsg&>(b).id);
      return;
    case Kind::kDhtPut: {
      const auto& x = static_cast<const DhtPutMsg&>(a);
      const auto& y = static_cast<const DhtPutMsg&>(b);
      EXPECT_EQ(x.key, y.key);
      EXPECT_EQ(x.record.node, y.record.node);
      EXPECT_EQ(x.record.values, y.record.values);
      return;
    }
    case Kind::kDhtGet: {
      const auto& x = static_cast<const DhtGetMsg&>(a);
      const auto& y = static_cast<const DhtGetMsg&>(b);
      EXPECT_EQ(x.key, y.key);
      EXPECT_EQ(x.origin, y.origin);
      EXPECT_EQ(x.request_id, y.request_id);
      return;
    }
    case Kind::kDhtRecords: {
      const auto& x = static_cast<const DhtRecordsMsg&>(a);
      const auto& y = static_cast<const DhtRecordsMsg&>(b);
      EXPECT_EQ(x.request_id, y.request_id);
      EXPECT_EQ(x.key, y.key);
      ASSERT_EQ(x.records.size(), y.records.size());
      for (std::size_t i = 0; i < x.records.size(); ++i) {
        EXPECT_EQ(x.records[i].node, y.records[i].node);
        EXPECT_EQ(x.records[i].values, y.records[i].values);
      }
      return;
    }
    case Kind::kFloodQuery: {
      const auto& x = static_cast<const FloodQueryMsg&>(a);
      const auto& y = static_cast<const FloodQueryMsg&>(b);
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.origin, y.origin);
      EXPECT_EQ(x.ttl, y.ttl);
      EXPECT_EQ(x.query, y.query);
      return;
    }
    case Kind::kFloodHit: {
      const auto& x = static_cast<const FloodHitMsg&>(a);
      const auto& y = static_cast<const FloodHitMsg&>(b);
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.match.id, y.match.id);
      EXPECT_EQ(x.match.values, y.match.values);
      return;
    }
    case Kind::kSliceRequest:
    case Kind::kSliceReply: {
      const auto& x = static_cast<const SliceExchangeMsg&>(a);
      const auto& y = static_cast<const SliceExchangeMsg&>(b);
      EXPECT_EQ(x.is_reply, y.is_reply);
      EXPECT_EQ(x.attribute, y.attribute);
      EXPECT_EQ(x.slice_value, y.slice_value);
      EXPECT_EQ(x.swapped, y.swapped);
      return;
    }
    default:
      FAIL() << "no comparator for kind " << static_cast<int>(a.kind());
  }
}

TEST(WireProperty, EveryKindRoundTripsRandomizedMessages) {
  Rng rng(20260807);
  for (int trial = 0; trial < 100; ++trial) {
    for (Kind k : kAllKinds) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(k)) +
                   " trial " + std::to_string(trial));
      MessagePtr m = make_random(k, rng);
      ASSERT_NE(m, nullptr);
      ASSERT_EQ(m->kind(), k);
      auto bytes = encode(*m);
      ASSERT_FALSE(bytes.empty());
      EXPECT_EQ(bytes[0], static_cast<std::uint8_t>(k));  // frame = tag + body
      // Codec-derived size: the lazily computed cache equals the frame
      // length exactly (the same put, run into a Sizer).
      EXPECT_EQ(m->wire_size(), bytes.size());
      MessagePtr out = decode(bytes);
      ASSERT_NE(out, nullptr);
      ASSERT_EQ(out->kind(), k);
      // decode() stamps the arriving frame length into the cache.
      EXPECT_EQ(out->wire_size(), bytes.size());
      expect_same(*m, *out);
    }
  }
}

// ---- descriptor-list properties -------------------------------------------
//
// The gossip kinds delta-code their descriptor lists against the first
// entry, so the interesting inputs are the shape gossip actually sends
// (shared dimensionality, bounded attribute ranges) and
// adversarial extremes (mixed dimensionality, zig-zag wraparound).

constexpr Kind kGossipKinds[] = {Kind::kCyclonRequest, Kind::kCyclonReply,
                                 Kind::kVicinityRequest, Kind::kVicinityReply};

std::vector<PeerDescriptor> correlated_descriptors(Rng& rng, std::size_t n,
                                                   std::size_t dims = 5) {
  std::vector<PeerDescriptor> v(n);
  for (auto& d : v) {
    d.id = static_cast<NodeId>(rng.below(1000));
    d.age = static_cast<std::uint32_t>(rng.below(20));
    d.values.resize(dims);
    for (auto& val : d.values) val = rng.below(80);
  }
  return v;
}

std::vector<PeerDescriptor> hostile_descriptors(Rng& rng) {
  std::vector<PeerDescriptor> v = rand_descriptors(rng);
  for (auto& d : v) {
    if (rng.below(4) != 0) continue;
    for (auto& val : d.values) val = ~0ull - rng.below(3);
    d.id = 0xFFFFFFFFu;
    d.age = 0xFFFFFFFFu;
  }
  return v;
}

MessagePtr make_gossip(Kind k, std::vector<PeerDescriptor> entries) {
  if (k == Kind::kCyclonRequest || k == Kind::kCyclonReply) {
    auto m = std::make_unique<CyclonShuffleMsg>();
    m->is_reply = k == Kind::kCyclonReply;
    m->entries = std::move(entries);
    return m;
  }
  auto m = std::make_unique<VicinityExchangeMsg>();
  m->is_reply = k == Kind::kVicinityReply;
  m->entries = std::move(entries);
  return m;
}

TEST(WireProperty, EveryGossipKindRoundTripsRandomizedMessages) {
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    for (Kind k : kGossipKinds) {
      SCOPED_TRACE("kind " + std::to_string(static_cast<int>(k)) + " trial " +
                   std::to_string(trial));
      auto entries = trial % 2 == 0 ? correlated_descriptors(rng, rng.below(10))
                                    : hostile_descriptors(rng);
      MessagePtr m = make_gossip(k, std::move(entries));
      auto bytes = encode(*m);
      ASSERT_FALSE(bytes.empty());
      EXPECT_EQ(m->wire_size(), bytes.size());
      MessagePtr out = decode(bytes);
      ASSERT_NE(out, nullptr);
      EXPECT_EQ(out->wire_size(), bytes.size());
      expect_same(*m, *out);
    }
  }
}

TEST(WireProperty, SizeBodyMatchesEncodedLength) {
  // The generated sizer (the put run into a Sizer) must agree with the
  // encoder on every input: traffic accounting is only as honest as this.
  Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    for (Kind k : kGossipKinds) {
      MessagePtr m = make_gossip(k, hostile_descriptors(rng));
      EXPECT_EQ(encoded_size(*m), encode(*m).size());
      m = make_gossip(k, correlated_descriptors(rng, rng.below(10)));
      EXPECT_EQ(encoded_size(*m), encode(*m).size());
    }
  }
}

TEST(WireProperty, CompressionMeetsTheBenchFloor) {
  // On gossip-shaped exchanges (full view, 5 dimensions, bounded attribute
  // ranges) frames must be at least 25% smaller than the paper's plain
  // layout — what the gossip_cost and net_deploy gates measure end to end
  // — and paper_layout_savings() must report exactly the difference.
  // Plain layout: tag + count + 6 x (id, age, 1+5x8 values, 1+5x4 coords).
  constexpr std::size_t kPaperBytes = 1 + 1 + 6 * (4 + 4 + 41 + 21);
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    MessagePtr m =
        make_gossip(Kind::kCyclonRequest, correlated_descriptors(rng, 6, 5));
    const std::size_t sent = encode(*m).size();
    EXPECT_LE(sent * 4, kPaperBytes * 3)
        << "trial " << trial << ": " << sent << " vs " << kPaperBytes;
    EXPECT_EQ(paper_layout_savings(*m), kPaperBytes - sent);
  }
  ProgressMsg p;  // kinds without a descriptor list save nothing
  EXPECT_EQ(paper_layout_savings(p), 0u);
}

TEST(WireProperty, SizeIsStableAcrossRecode) {
  // encode -> decode (the loopback and UDP boundary) must agree with
  // wire_size() on both sides: no message changes size by crossing the wire.
  Rng rng(99);
  for (Kind k : kAllKinds) {
    MessagePtr m = make_random(k, rng);
    ASSERT_NE(m, nullptr);
    const auto bytes = encode(*m);
    EXPECT_FALSE(bytes.empty());
    MessagePtr back = decode(bytes);
    ASSERT_NE(back, nullptr) << "kind " << static_cast<int>(k);
    EXPECT_EQ(m->wire_size(), back->wire_size());
  }
}

}  // namespace
}  // namespace ares::wire
