/// Deterministic decode-hardening fuzz: the frame parser must be total.
/// For corpora derived from valid frames of every wire::Kind — prefix
/// truncations, single-bit flips, random byte mutations, planted count
/// bombs — and for pure random buffers, decode() must return nullptr or a
/// valid message. It must never crash, over-read (ASan/UBSan CI job runs
/// this suite), or allocate absurd amounts from attacker-chosen counts.
///
/// When a mutated frame DOES decode, the result must still uphold the codec
/// invariants: its kind matches the tag and its cached wire_size() equals
/// the frame length it arrived in.
///
/// The DeltaDecodeFuzz cases aim the same attacks at the delta-coded
/// descriptor lists of the gossip kinds, with entries that share the
/// reference's dimensionality so the delta path (not the full-entry
/// fallback) is what gets parsed. The last one feeds frames that decode
/// cleanly yet name a peer id past the receiving store's rows to a node,
/// whose ingress check must drop them.
///
/// The ReplyDecodeFuzz case hand-builds malformed reply record bodies (id
/// gaps and varint values) and sends each through a UDP runtime's receive
/// path to a node, which must drop and meter every one.

#include "wire/codecs.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"
#include "core/selection_node.h"
#include "net/datagram.h"
#include "net/process.h"
#include "net/udp_runtime.h"
#include "runtime/loopback.h"

namespace ares::wire {
namespace {

PeerDescriptor fuzz_descriptor(Rng& rng) {
  PeerDescriptor d;
  d.id = static_cast<NodeId>(rng.below(1000));
  d.age = static_cast<std::uint32_t>(rng.below(100));
  d.values.resize(rng.below(5));
  for (auto& v : d.values) v = rng.next();
  return d;
}

RangeQuery fuzz_query(Rng& rng) {
  int dims = 1 + static_cast<int>(rng.below(5));
  auto q = RangeQuery::any(dims);
  for (int d = 0; d < dims; ++d)
    if (rng.below(2)) q.with(d, rng.below(100), 100 + rng.below(100));
  return q;
}

/// One valid frame per registered kind, with randomized field content.
std::vector<std::vector<std::uint8_t>> corpus(Rng& rng) {
  std::vector<std::vector<std::uint8_t>> frames;
  auto add = [&](const Message& m) {
    auto bytes = encode(m);
    EXPECT_FALSE(bytes.empty()) << m.type_name();
    frames.push_back(std::move(bytes));
  };

  for (bool reply : {false, true}) {
    CyclonShuffleMsg c;
    c.is_reply = reply;
    c.entries = {fuzz_descriptor(rng), fuzz_descriptor(rng)};
    add(c);
    VicinityExchangeMsg v;
    v.is_reply = reply;
    v.entries = {fuzz_descriptor(rng)};
    add(v);
    SliceExchangeMsg s;
    s.is_reply = reply;
    s.attribute = 0.25;
    s.slice_value = 0.75;
    s.swapped = reply;
    add(s);
  }

  QueryMsg q;
  q.id = rng.next();
  q.reply_to = 1;
  q.origin = 2;
  q.sigma = 50;
  q.level = 3;
  q.dims_mask = 0b1011;
  q.query = fuzz_query(rng);
  q.query.with_dynamic(0, 1, 2);
  add(q);

  ReplyMsg r;
  r.id = rng.next();
  r.matching = {{3, {1, 2, 3}}, {4, {4, 5, 6}}};
  add(r);
  // Multi-byte varints in both the id gaps and the values.
  r.matching = {{3, {1, 300, rng.next()}}, {70'000, {4, 5, 6}}};
  add(r);

  ProgressMsg p;
  p.id = rng.next();
  add(p);

  DhtPutMsg put;
  put.key = rng.next();
  put.record = {7, {8, 9}};
  add(put);

  DhtGetMsg get;
  get.key = rng.next();
  get.origin = 11;
  get.request_id = rng.next();
  add(get);

  DhtRecordsMsg recs;
  recs.request_id = rng.next();
  recs.key = rng.next();
  recs.records = {{12, {13}}, {14, {15}}};
  add(recs);

  FloodQueryMsg fq;
  fq.id = rng.next();
  fq.origin = 21;
  fq.ttl = 4;
  fq.query = fuzz_query(rng);
  add(fq);

  FloodHitMsg fh;
  fh.id = rng.next();
  fh.match = {22, {23, 24}};
  add(fh);

  return frames;
}

/// decode() must be total; on success the codec invariants must hold.
void expect_total(const std::vector<std::uint8_t>& bytes) {
  MessagePtr m = decode(bytes);
  if (m == nullptr) return;
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(m->kind()), bytes[0]);
  EXPECT_EQ(m->wire_size(), bytes.size());
}

TEST(DecodeFuzz, EveryPrefixTruncationOfEveryKindFailsCleanly) {
  Rng rng(0xF0221);
  for (const auto& frame : corpus(rng)) {
    // A strict prefix is missing trailing fields (or the end-of-frame check
    // trips); none may decode.
    for (std::size_t len = 0; len < frame.size(); ++len)
      EXPECT_EQ(decode(frame.data(), len), nullptr)
          << "kind " << int(frame[0]) << " prefix " << len;
  }
}

TEST(DecodeFuzz, SingleBitFlipsNeverCrash) {
  Rng rng(0xF0222);
  for (const auto& frame : corpus(rng)) {
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto copy = frame;
        copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expect_total(copy);
      }
    }
  }
}

TEST(DecodeFuzz, RandomMutationsNeverCrash) {
  Rng rng(0xF0223);
  auto frames = corpus(rng);
  for (int trial = 0; trial < 4000; ++trial) {
    auto copy = frames[rng.index(frames.size())];
    // 1-4 random byte substitutions, plus occasional grow/shrink.
    std::uint64_t edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits && !copy.empty(); ++e)
      copy[rng.index(copy.size())] = static_cast<std::uint8_t>(rng.below(256));
    if (rng.below(4) == 0) copy.push_back(static_cast<std::uint8_t>(rng.below(256)));
    if (rng.below(4) == 0 && !copy.empty()) copy.pop_back();
    expect_total(copy);
  }
}

TEST(DecodeFuzz, PlantedCountBombsAreRejectedWithoutAllocating) {
  Rng rng(0xF0224);
  // Splice a maximal varint where each frame's first count-ish field lives
  // (right after the fixed header bytes); decode must reject via the
  // remaining-bytes bound, not attempt a giant resize.
  for (const auto& frame : corpus(rng)) {
    for (std::size_t pos = 1; pos < std::min<std::size_t>(frame.size(), 24); ++pos) {
      auto copy = frame;
      static constexpr std::uint8_t kHugeVarint[] = {0xFF, 0xFF, 0xFF, 0xFF,
                                                     0xFF, 0xFF, 0xFF, 0x7F};
      copy.insert(copy.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::begin(kHugeVarint), std::end(kHugeVarint));
      expect_total(copy);
    }
  }
}

TEST(DecodeFuzz, PureRandomBuffersNeverCrash) {
  Rng rng(0xF0225);
  for (int trial = 0; trial < 6000; ++trial) {
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    // Bias some buffers toward valid tags so bodies actually get parsed.
    if (!junk.empty() && rng.below(2) == 0)
      junk[0] = static_cast<std::uint8_t>(1 + rng.below(14));
    expect_total(junk);
  }
}

// ---- delta-coded descriptor lists -----------------------------------------

constexpr Kind kGossipKinds[] = {Kind::kCyclonRequest, Kind::kCyclonReply,
                                 Kind::kVicinityRequest, Kind::kVicinityReply};

/// Gossip-shaped descriptors: 5 dimensions, bounded values.
std::vector<PeerDescriptor> gossip_descriptors(Rng& rng, std::size_t n) {
  std::vector<PeerDescriptor> v(n);
  for (auto& d : v) {
    d.id = static_cast<NodeId>(rng.below(1000));
    d.age = static_cast<std::uint32_t>(rng.below(20));
    d.values.resize(5);
    for (auto& val : d.values) val = rng.below(80);
  }
  return v;
}

std::vector<std::uint8_t> gossip_frame(Kind k, std::vector<PeerDescriptor> v) {
  if (k == Kind::kCyclonRequest || k == Kind::kCyclonReply) {
    CyclonShuffleMsg m;
    m.is_reply = k == Kind::kCyclonReply;
    m.entries = std::move(v);
    return encode(m);
  }
  VicinityExchangeMsg m;
  m.is_reply = k == Kind::kVicinityReply;
  m.entries = std::move(v);
  return encode(m);
}

TEST(DeltaDecodeFuzz, EveryPrefixTruncationFailsCleanly) {
  Rng rng(0xDE17A1);
  for (Kind k : kGossipKinds) {
    const auto frame = gossip_frame(k, gossip_descriptors(rng, 5));
    for (std::size_t len = 0; len < frame.size(); ++len)
      EXPECT_EQ(decode(frame.data(), len), nullptr)
          << "kind " << int(k) << " prefix " << len;
  }
}

TEST(DeltaDecodeFuzz, SingleBitFlipsNeverCrash) {
  Rng rng(0xDE17A2);
  for (Kind k : kGossipKinds) {
    auto entries = gossip_descriptors(rng, 4);
    entries[1].values.resize(2);  // one full-entry fallback
    entries[2].values[0] = ~0ull;  // a wrapping delta
    const auto frame = gossip_frame(k, std::move(entries));
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto copy = frame;
        copy[byte] ^= static_cast<std::uint8_t>(1u << bit);
        expect_total(copy);
      }
    }
  }
}

TEST(DeltaDecodeFuzz, RandomMutationsNeverCrash) {
  Rng rng(0xDE17A3);
  std::vector<std::vector<std::uint8_t>> frames;
  for (Kind k : kGossipKinds)
    frames.push_back(gossip_frame(k, gossip_descriptors(rng, 6)));
  for (int trial = 0; trial < 4000; ++trial) {
    auto copy = frames[rng.index(frames.size())];
    std::uint64_t edits = 1 + rng.below(4);
    for (std::uint64_t e = 0; e < edits && !copy.empty(); ++e)
      copy[rng.index(copy.size())] = static_cast<std::uint8_t>(rng.below(256));
    if (rng.below(4) == 0) copy.push_back(static_cast<std::uint8_t>(rng.below(256)));
    if (rng.below(4) == 0 && !copy.empty()) copy.pop_back();
    expect_total(copy);
  }
}

TEST(DeltaDecodeFuzz, TargetedMalformedFramesAreRejected) {
  Rng rng(0xDE17A4);
  const auto good = gossip_frame(Kind::kCyclonRequest, gossip_descriptors(rng, 3));
  ASSERT_NE(decode(good), nullptr);

  // A leading 0x00 is Kind::kInvalid: an unknown kind, like any other.
  auto invalid = good;
  invalid.insert(invalid.begin(), 0x00);
  EXPECT_EQ(decode(invalid), nullptr);

  // Varint overflow planted at the entry count.
  auto overflow = good;
  static constexpr std::uint8_t kForever[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                              0x80, 0x80, 0x80, 0x80, 0x80};
  overflow.erase(overflow.begin() + 1, overflow.end());
  overflow.insert(overflow.end(), std::begin(kForever), std::end(kForever));
  EXPECT_EQ(decode(overflow), nullptr);

  // Count bomb: claims 2^20 entries in a tiny frame.
  EXPECT_EQ(decode(std::vector<std::uint8_t>{0x01, 0x80, 0x80, 0x40}), nullptr);
}

TEST(DeltaDecodeFuzz, OutOfRangeBitmapBitsAreRejected) {
  // Two 3-dimensional entries: the second is a delta entry whose value
  // bitmap sits after tag, count, the 33-byte reference, flags, and the
  // one-byte id and age deltas.
  std::vector<PeerDescriptor> entries;
  entries.push_back({5, Point{10, 2000, 300000000000ULL}, 0});
  entries.push_back({6, Point{11, 1999, 300000000000ULL}, 1});
  const auto good = gossip_frame(Kind::kCyclonRequest, entries);
  constexpr std::size_t kFlags = 1 + 1 + 33;
  constexpr std::size_t kValueBitmap = kFlags + 3;
  ASSERT_EQ(good[kFlags], 0x00);
  ASSERT_EQ(good[kValueBitmap], 0x03);
  ASSERT_NE(decode(good), nullptr);

  // A bit past the reference dimensionality: reject, never index OOB.
  auto bad_bitmap = good;
  bad_bitmap[kValueBitmap] = 0x08;
  EXPECT_EQ(decode(bad_bitmap), nullptr);

  // Reserved entry flags (neither delta nor full) are rejected too.
  auto bad_flags = good;
  bad_flags[kFlags] = 0x02;
  EXPECT_EQ(decode(bad_flags), nullptr);
}

TEST(DeltaDecodeFuzz, CleanFramesNamingIdsPastTheStoreAreDroppedByTheNode) {
  // Ids are plain varint deltas: the codec cannot know which ids a store
  // has rows for, so these frames parse. The receiving node must drop each
  // one whole, meter it, and leave the store as it was.
  const auto space = AttributeSpace::uniform(5, 3, 0, 80);
  DescriptorStore store(space);
  ProtocolConfig cfg;  // outlives the runtime that owns the node
  cfg.gossip_enabled = false;
  LoopbackRuntime net;
  for (NodeId id = 1; id <= 8; ++id) store.put(id, Point(5, 10 * id));  // peers' rows
  const NodeId a = net.add_node(std::make_unique<SelectionNode>(  // id 0
      space, store, Point(5, 40), cfg, std::vector<PeerDescriptor>{}, Rng(1)));
  SelectionNode& node = *net.find_as<SelectionNode>(a);
  const NodeId bound = store.id_bound();
  const std::size_t rows = store.size();
  const std::size_t store_bytes = store.memory_bytes();
  const std::size_t node_bytes = node.memory_bytes();

  Rng rng(0xDE17A6);
  int frames = 0;
  for (Kind k : kGossipKinds) {
    for (int trial = 0; trial < 50; ++trial) {
      auto entries = gossip_descriptors(rng, 1 + rng.below(6));
      for (auto& e : entries) e.id = static_cast<NodeId>(rng.below(bound));
      NodeId& hostile = entries[rng.index(entries.size())].id;
      const std::uint64_t span = std::uint64_t{kInvalidNode} - bound + 1;
      hostile = trial == 0 ? bound : static_cast<NodeId>(bound + rng.below(span));
      const NodeId named = hostile;
      const auto frame = gossip_frame(k, std::move(entries));
      expect_total(frame);
      MessagePtr m = decode(frame);
      ASSERT_NE(m, nullptr) << "kind " << int(k) << " id " << named;
      node.on_message(1, *m);  // as if from a registered peer
      ++frames;
    }
  }
  EXPECT_EQ(net.metrics().node_value(a, "wire.decode_fail"),
            static_cast<std::uint64_t>(frames));
  EXPECT_TRUE(node.cyclon().view().empty());
  EXPECT_TRUE(node.vicinity().view().empty());
  EXPECT_TRUE(net.idle());  // nothing answered
  EXPECT_EQ(store.size(), rows);
  EXPECT_EQ(store.memory_bytes(), store_bytes);
  EXPECT_EQ(node.memory_bytes(), node_bytes);
}

// ---- reply record bodies --------------------------------------------------

/// A kReply frame: tag, query id and complete flag, then `fields` as
/// varints (count, dimensionality, then per record an id gap and d values),
/// with `raw` bytes spliced in before field `at`.
std::vector<std::uint8_t> reply_frame(const std::vector<std::uint64_t>& fields,
                                      std::span<const std::uint8_t> raw = {},
                                      std::size_t at = 0) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kReply));
  w.u64(0x51);
  w.u8(1);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i == at) w.bytes_raw(raw.data(), raw.size());
    w.varint(fields[i]);
  }
  return w.take();
}

TEST(ReplyDecodeFuzz, MalformedRecordBodiesAreDroppedAndMetered) {
  // A 3-d node hosted by a UDP runtime: every frame below crosses the real
  // receive path (datagram header, codec, then the node's ingress check).
  const auto space = AttributeSpace::uniform(3, 3, 0, 80);
  DescriptorStore store(space);
  for (NodeId id = 0; id < 2; ++id) store.put(id, Point(3, 10 + 20 * id));
  const int fd = net::udp_bind_loopback();
  ASSERT_GE(fd, 0);
  net::AddressBook book;
  book.set(0, {0x7F000001, net::local_port(fd)});
  ProtocolConfig cfg;  // outlives the runtime that owns the node
  cfg.gossip_enabled = false;
  net::UdpRuntime rt(fd, book, {});
  rt.add_node(0, std::make_unique<SelectionNode>(space, store, store.point_of(0), cfg,
                                                 std::vector<PeerDescriptor>{}, Rng(1)));
  auto inject = [&rt](const std::vector<std::uint8_t>& frame) {
    std::vector<std::uint8_t> d(net::kHeaderSize);
    net::encode_header({1, 0, 0, static_cast<std::uint16_t>(frame.size())}, d.data());
    d.insert(d.end(), frame.begin(), frame.end());
    rt.inject_datagram(d.data(), d.size());
    return rt.metrics().node_value(0, "wire.decode_fail");
  };

  // Control: ids 5 and 2^32 - 1 (the largest), multi-byte gaps and values.
  const std::uint64_t last_gap = std::uint64_t{kInvalidNode} - 5;
  const auto good = reply_frame({2, 3, 6, 10, 300, 20, last_gap, 10, 300, 20});
  MessagePtr parsed = decode(good);
  ASSERT_NE(parsed, nullptr);
  const auto& records = static_cast<const ReplyMsg&>(*parsed).matching;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 5u);
  EXPECT_EQ(records[1].id, kInvalidNode);
  EXPECT_EQ(records[1].values, (Point{10, 300, 20}));
  EXPECT_EQ(inject(good), 0u);

  // 300 is the two-byte varint ac 02: the frame ends after its first byte.
  auto truncated = reply_frame({1, 3, 6, 10, 20, 300});
  ASSERT_EQ(truncated.back(), 0x02);
  truncated.pop_back();
  static constexpr std::uint8_t kOverlong[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                               0x80, 0x80, 0x80, 0x80, 0x01};
  static constexpr std::uint8_t kPast64[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                             0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  std::vector<std::uint64_t> too_wide = {1, Point::max_size() + 1, 6};
  too_wide.resize(too_wide.size() + Point::max_size() + 1, 1);

  struct Case {
    const char* what;
    std::vector<std::uint8_t> frame;
    bool parses;  // clean to the codec; only the node can tell
  };
  const Case cases[] = {
      {"truncated inside a varint", truncated, false},
      {"zero id gap", reply_frame({2, 3, 6, 10, 300, 20, 0, 10, 300, 20}), false},
      {"gaps past 2^32 - 1",
       reply_frame({2, 3, kInvalidNode, 10, 300, 20, 2, 10, 300, 20}), false},
      {"one gap past 2^32 - 1", reply_frame({1, 3, std::uint64_t{1} << 40, 10, 300, 20}),
       false},
      {"over-long varint", reply_frame({1, 3, 6, 300, 20}, kOverlong, 3), false},
      {"varint past 64 bits", reply_frame({1, 3, 6, 300, 20}, kPast64, 3), false},
      {"dimensionality past the inline capacity", reply_frame(too_wide), false},
      {"dimensionality 2 on a 3-d node", reply_frame({1, 2, 6, 10, 20}), true},
  };
  std::uint64_t fails = 0;
  for (const Case& c : cases) {
    EXPECT_EQ(decode(c.frame) != nullptr, c.parses) << c.what;
    EXPECT_EQ(inject(c.frame), ++fails) << c.what;
  }
  EXPECT_EQ(inject(good), fails);  // the node still takes clean replies
  EXPECT_EQ(rt.rx_rejected(), 0u);  // every frame got past the header
}

}  // namespace
}  // namespace ares::wire
