#include "wire/codecs.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ares::wire {
namespace {

// The registry dispatches on Message::kind() before calling a codec, so the
// static_casts below are guarded by each type's kind() override. Every put is
// generic over its sink (Writer or Sizer, runtime/wire.h): the one layout
// both encodes and sizes a frame.

// ---- field codecs ---------------------------------------------------------

// A point travels as a varint count and that many fixed-width u64 values.

template <class W>
void put_point(W& w, const Point& p) {
  w.varint(p.size());
  for (AttrValue v : p) w.u64(v);
}

bool get_point(Reader& r, Point& p) {
  std::uint64_t n = r.count(8);
  // Point stores its elements inline: a count beyond the fixed capacity can
  // only come from a corrupt/hostile frame. Fail the decode, never throw.
  if (!r.ok() || n > Point::max_size()) return false;
  p.resize(static_cast<std::size_t>(n));
  for (auto& v : p) v = r.u64();
  return r.ok();
}

template <class W>
void put_descriptor(W& w, const PeerDescriptor& d) {
  w.u32(d.id);
  w.u32(d.age);
  put_point(w, d.values);
}

bool get_descriptor(Reader& r, PeerDescriptor& d) {
  d.id = r.u32();
  d.age = r.u32();
  return get_point(r, d.values) && r.ok();
}

template <class W>
void put_query(W& w, const RangeQuery& q) {
  w.varint(static_cast<std::uint64_t>(q.dimensions()));
  for (int d = 0; d < q.dimensions(); ++d) {
    w.opt_u64(q.range(d).lo);
    w.opt_u64(q.range(d).hi);
  }
  const auto& filters = q.dynamic_filters();
  w.varint(filters.size());
  for (const auto& f : filters) {
    w.varint(f.index);
    w.opt_u64(f.range.lo);
    w.opt_u64(f.range.hi);
  }
}

bool get_query(Reader& r, RangeQuery& q) {
  std::uint64_t d = r.count(2);  // two presence bytes per dimension minimum
  if (!r.ok()) return false;
  q = RangeQuery::any(static_cast<int>(d));
  for (std::uint64_t i = 0; i < d; ++i) {
    auto lo = r.opt_u64();
    auto hi = r.opt_u64();
    if (!r.ok()) return false;
    q.with(static_cast<int>(i), lo, hi);
  }
  std::uint64_t filters = r.count(3);
  if (!r.ok()) return false;
  for (std::uint64_t i = 0; i < filters; ++i) {
    std::uint64_t index = r.varint();
    auto lo = r.opt_u64();
    auto hi = r.opt_u64();
    if (!r.ok()) return false;
    q.with_dynamic(static_cast<std::size_t>(index), lo, hi);
  }
  return r.ok();
}

template <class W>
void put_record(W& w, const MatchRecord& m) {
  w.u32(m.id);
  put_point(w, m.values);
}

bool get_record(Reader& r, MatchRecord& m) {
  m.id = r.u32();
  return get_point(r, m.values) && r.ok();
}

template <class W>
void put_resource(W& w, const ResourceRecord& rec) {
  w.u32(rec.node);
  put_point(w, rec.values);
}

bool get_resource(Reader& r, ResourceRecord& rec) {
  rec.node = r.u32();
  return get_point(r, rec.values) && r.ok();
}

// The paper's plain descriptor-list layout: a count, then every descriptor
// in full, each with its level-0 cell coordinates (a varint count and one
// u32 per dimension) after its values. Never encoded, only counted: it is
// the yardstick the §6 budget of ~2,560 B/node/cycle is stated in (see
// paper_layout_savings()).
std::size_t plain_descriptors_size(const std::vector<PeerDescriptor>& v) {
  Sizer s;
  s.varint(v.size());
  for (const auto& d : v) {
    put_descriptor(s, d);
    s.varint(d.values.size());
    for (std::size_t i = 0; i < d.values.size(); ++i) s.u32(0);  // cell index
  }
  return s.size();
}

// ---- per-kind codecs ------------------------------------------------------

const std::vector<PeerDescriptor>& gossip_entries(const Message& m) {
  Kind k = m.kind();
  return (k == Kind::kCyclonRequest || k == Kind::kCyclonReply)
             ? static_cast<const CyclonShuffleMsg&>(m).entries
             : static_cast<const VicinityExchangeMsg&>(m).entries;
}

// ---- gossip descriptor lists ----------------------------------------------
//
// The CYCLON/Vicinity descriptor lists (the ~95% of gossip bytes) are
// delta-coded. Entry 0 travels as a full descriptor — the per-exchange
// reference; every later entry carries zig-zag varint *wrapping* deltas
// against it, with a presence bitmap so attribute values equal to the
// reference cost one bit instead of 8 bytes. Wrapping arithmetic (mod
// 2^64 / 2^32) makes the round trip exact for every input, including
// adversarial extremes. An entry whose dimensionality differs from the
// reference falls back to the full form (flags=1), keeping the delta
// encoder total. No descriptor carries its cell: receivers derive it from
// the values. Layout and rejection rules are specified in docs/PROTOCOL.md
// §"Descriptor-list encoding".

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// Wrapping difference b - a as a sign-extended value: small for nearby
// inputs in either direction, exact for all inputs under wrapping add.
std::int64_t wrap_diff_u64(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::int64_t>(b - a);
}

std::int64_t wrap_diff_u32(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(b - a);
}

std::uint64_t wrap_add_u64(std::uint64_t a, std::int64_t d) {
  return a + static_cast<std::uint64_t>(d);
}

std::uint32_t wrap_add_u32(std::uint32_t a, std::int64_t d) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(a) +
                                    static_cast<std::uint64_t>(d));
}

// Entry flags byte: 0 = delta against the reference, 1 = full descriptor
// fallback (dimensionality mismatch). Any other value rejects the frame.
constexpr std::uint8_t kDeltaEntry = 0;
constexpr std::uint8_t kFullEntry = 1;

bool delta_encodable(const PeerDescriptor& ref, const PeerDescriptor& d) {
  return d.values.size() == ref.values.size();
}

template <class W>
void put_delta_entry(W& w, const PeerDescriptor& ref, const PeerDescriptor& d) {
  if (!delta_encodable(ref, d)) {
    w.u8(kFullEntry);
    put_descriptor(w, d);
    return;
  }
  w.u8(kDeltaEntry);
  w.varint(zigzag(wrap_diff_u32(ref.id, d.id)));
  w.varint(zigzag(wrap_diff_u32(ref.age, d.age)));
  std::uint64_t vbits = 0;
  for (std::size_t i = 0; i < d.values.size(); ++i)
    if (d.values[i] != ref.values[i]) vbits |= std::uint64_t{1} << i;
  w.varint(vbits);
  for (std::size_t i = 0; i < d.values.size(); ++i)
    if (vbits & (std::uint64_t{1} << i))
      w.varint(zigzag(wrap_diff_u64(ref.values[i], d.values[i])));
}

bool get_delta_entry(Reader& r, const PeerDescriptor& ref,
                     PeerDescriptor& d) {
  const std::uint8_t flags = r.u8();
  if (!r.ok()) return false;
  if (flags == kFullEntry) return get_descriptor(r, d);
  if (flags != kDeltaEntry) return false;  // unknown flag bits: reject
  d.id = wrap_add_u32(ref.id, unzigzag(r.varint()));
  d.age = wrap_add_u32(ref.age, unzigzag(r.varint()));
  const std::uint64_t vbits = r.varint();
  if (!r.ok()) return false;
  // A bit addressing a dimension the reference does not have can only come
  // from a corrupt/hostile frame (the encoder falls back to kFullEntry on
  // any dimensionality mismatch).
  if (ref.values.size() < 64 && (vbits >> ref.values.size()) != 0) return false;
  d.values.resize(ref.values.size());
  for (std::size_t i = 0; i < d.values.size(); ++i)
    d.values[i] = (vbits & (std::uint64_t{1} << i))
                      ? wrap_add_u64(ref.values[i], unzigzag(r.varint()))
                      : ref.values[i];
  return r.ok();
}

template <class W>
void put_delta_descriptors(W& w, const std::vector<PeerDescriptor>& v) {
  w.varint(v.size());
  if (v.empty()) return;
  put_descriptor(w, v[0]);  // the reference travels in full
  for (std::size_t i = 1; i < v.size(); ++i) put_delta_entry(w, v[0], v[i]);
}

bool get_delta_descriptors(Reader& r, std::vector<PeerDescriptor>& v) {
  std::uint64_t n = r.count(4);  // >= flags + id + age + bitmap
  if (!r.ok()) return false;
  v.resize(static_cast<std::size_t>(n));
  if (v.empty()) return true;
  if (!get_descriptor(r, v[0])) return false;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (!get_delta_entry(r, v[0], v[i])) return false;
  return true;
}

constexpr auto encode_gossip = [](const Message& m, auto& w) {
  put_delta_descriptors(w, gossip_entries(m));
};

MessagePtr decode_gossip(Reader& r, Kind kind) {
  if (kind == Kind::kCyclonRequest || kind == Kind::kCyclonReply) {
    auto m = std::make_unique<CyclonShuffleMsg>();
    m->is_reply = kind == Kind::kCyclonReply;
    if (!get_delta_descriptors(r, m->entries)) return nullptr;
    return m;
  }
  auto m = std::make_unique<VicinityExchangeMsg>();
  m->is_reply = kind == Kind::kVicinityReply;
  if (!get_delta_descriptors(r, m->entries)) return nullptr;
  return m;
}

constexpr auto encode_query = [](const Message& m, auto& w) {
  const auto& q = static_cast<const QueryMsg&>(m);
  w.u64(q.id);
  w.u32(q.reply_to);
  w.u32(q.origin);
  w.u32(q.sigma);
  // level in [-1, 127] encoded with a +1 offset.
  w.u8(static_cast<std::uint8_t>(q.level + 1));
  w.u32(q.dims_mask);
  put_query(w, q.query);
};

MessagePtr decode_query(Reader& r, Kind) {
  auto m = std::make_unique<QueryMsg>();
  m->id = r.u64();
  m->reply_to = r.u32();
  m->origin = r.u32();
  m->sigma = r.u32();
  std::uint8_t lvl = r.u8();
  m->level = static_cast<int>(lvl) - 1;
  m->dims_mask = r.u32();
  if (!get_query(r, m->query)) return nullptr;
  return m;
}

// ---- reply records ----------------------------------------------------------
//
// A kReply body lists its records in strictly ascending id order (the order
// every candidate set is kept in), so each id travels as a varint gap from
// the previous one and every value as a varint: one byte each for the
// workloads' [0, 80]. One dimensionality, sent after the count when there
// are records, sizes every record. Layout and rejection rules are specified
// in docs/PROTOCOL.md §"Reply records".

/// One past the largest NodeId: no decoded id may reach it.
constexpr std::uint64_t kIdSpan = std::uint64_t{kInvalidNode} + 1;

/// The gap of `id` from the previous record's id, given `next`, one past
/// it. The first record's `next` is 0, a virtual id -1: every gap of an
/// ascending list is >= 1.
std::uint64_t id_gap(std::uint64_t next, NodeId id) {
  return std::uint64_t{id} + 1 - next;
}

constexpr auto encode_reply = [](const Message& m, auto& w) {
  const auto& rp = static_cast<const ReplyMsg&>(m);
  w.u64(rp.id);
  w.u8(rp.complete ? 1 : 0);
  w.varint(rp.matching.size());
  if (rp.matching.empty()) return;
  const std::size_t d = rp.matching.front().values.size();
  w.varint(d);
  std::uint64_t next = 0;
  for (const auto& rec : rp.matching) {
    assert(rec.values.size() == d);
    w.varint(id_gap(next, rec.id));
    next = std::uint64_t{rec.id} + 1;
    for (std::size_t i = 0; i < d; ++i) w.varint(rec.values[i]);
  }
};

MessagePtr decode_reply(Reader& r, Kind) {
  auto m = std::make_unique<ReplyMsg>();
  m->id = r.u64();
  const std::uint8_t complete = r.u8();
  if (complete > 1) return nullptr;
  m->complete = complete == 1;
  const std::uint64_t n = r.count(1);
  if (!r.ok()) return nullptr;
  if (n == 0) return m;
  const std::uint64_t d = r.varint();
  // Values are stored inline (see get_point), and every record takes at
  // least one byte for its gap and one per value.
  if (!r.ok() || d > Point::max_size() || n > r.remaining() / (1 + d))
    return nullptr;
  m->matching.resize(static_cast<std::size_t>(n));
  std::uint64_t next = 0;
  for (auto& rec : m->matching) {
    const std::uint64_t gap = r.varint();
    // A zero gap repeats an id; a gap past the id space wraps it.
    if (!r.ok() || gap == 0 || gap > kIdSpan - next) return nullptr;
    next += gap;
    rec.id = static_cast<NodeId>(next - 1);
    rec.values.resize(static_cast<std::size_t>(d));
    for (auto& v : rec.values) v = r.varint();
  }
  if (!r.ok()) return nullptr;
  return m;
}

constexpr auto encode_progress = [](const Message& m, auto& w) {
  w.u64(static_cast<const ProgressMsg&>(m).id);
};

MessagePtr decode_progress(Reader& r, Kind) {
  auto m = std::make_unique<ProgressMsg>();
  m->id = r.u64();
  return m;
}

constexpr auto encode_dht = [](const Message& m, auto& w) {
  switch (m.kind()) {
    case Kind::kDhtPut: {
      const auto& p = static_cast<const DhtPutMsg&>(m);
      w.u64(p.key);
      put_resource(w, p.record);
      return;
    }
    case Kind::kDhtGet: {
      const auto& g = static_cast<const DhtGetMsg&>(m);
      w.u64(g.key);
      w.u32(g.origin);
      w.u64(g.request_id);
      return;
    }
    default: {
      const auto& recs = static_cast<const DhtRecordsMsg&>(m);
      w.u64(recs.request_id);
      w.u64(recs.key);
      w.varint(recs.records.size());
      for (const auto& rec : recs.records) put_resource(w, rec);
      return;
    }
  }
};

MessagePtr decode_dht(Reader& r, Kind kind) {
  switch (kind) {
    case Kind::kDhtPut: {
      auto m = std::make_unique<DhtPutMsg>();
      m->key = r.u64();
      if (!get_resource(r, m->record)) return nullptr;
      return m;
    }
    case Kind::kDhtGet: {
      auto m = std::make_unique<DhtGetMsg>();
      m->key = r.u64();
      m->origin = r.u32();
      m->request_id = r.u64();
      return m;
    }
    default: {
      auto m = std::make_unique<DhtRecordsMsg>();
      m->request_id = r.u64();
      m->key = r.u64();
      std::uint64_t n = r.count(5);
      if (!r.ok()) return nullptr;
      m->records.resize(static_cast<std::size_t>(n));
      for (auto& rec : m->records)
        if (!get_resource(r, rec)) return nullptr;
      return m;
    }
  }
}

constexpr auto encode_flood_query = [](const Message& m, auto& w) {
  const auto& f = static_cast<const FloodQueryMsg&>(m);
  w.u64(f.id);
  w.u32(f.origin);
  w.varint(static_cast<std::uint32_t>(std::max(f.ttl, 0)));
  put_query(w, f.query);
};

MessagePtr decode_flood_query(Reader& r, Kind) {
  auto m = std::make_unique<FloodQueryMsg>();
  m->id = r.u64();
  m->origin = r.u32();
  std::uint64_t ttl = r.varint();
  if (!r.ok() || ttl > std::numeric_limits<int>::max()) return nullptr;
  m->ttl = static_cast<int>(ttl);
  if (!get_query(r, m->query)) return nullptr;
  return m;
}

constexpr auto encode_flood_hit = [](const Message& m, auto& w) {
  const auto& f = static_cast<const FloodHitMsg&>(m);
  w.u64(f.id);
  put_record(w, f.match);
};

MessagePtr decode_flood_hit(Reader& r, Kind) {
  auto m = std::make_unique<FloodHitMsg>();
  m->id = r.u64();
  if (!get_record(r, m->match)) return nullptr;
  return m;
}

constexpr auto encode_slice = [](const Message& m, auto& w) {
  const auto& s = static_cast<const SliceExchangeMsg&>(m);
  w.f64(s.attribute);
  w.f64(s.slice_value);
  w.u8(s.swapped ? 1 : 0);
};

MessagePtr decode_slice(Reader& r, Kind kind) {
  auto m = std::make_unique<SliceExchangeMsg>();
  m->is_reply = kind == Kind::kSliceReply;
  m->attribute = r.f64();
  m->slice_value = r.f64();
  std::uint8_t swapped = r.u8();
  if (!r.ok() || swapped > 1) return nullptr;
  m->swapped = swapped == 1;
  return m;
}

}  // namespace

namespace detail {

void register_builtin_codecs() {
  register_codec(Kind::kCyclonRequest, encode_gossip, decode_gossip);
  register_codec(Kind::kCyclonReply, encode_gossip, decode_gossip);
  register_codec(Kind::kVicinityRequest, encode_gossip, decode_gossip);
  register_codec(Kind::kVicinityReply, encode_gossip, decode_gossip);
  register_codec(Kind::kQuery, encode_query, decode_query);
  register_codec(Kind::kReply, encode_reply, decode_reply);
  register_codec(Kind::kProgress, encode_progress, decode_progress);
  register_codec(Kind::kDhtPut, encode_dht, decode_dht);
  register_codec(Kind::kDhtGet, encode_dht, decode_dht);
  register_codec(Kind::kDhtRecords, encode_dht, decode_dht);
  register_codec(Kind::kFloodQuery, encode_flood_query, decode_flood_query);
  register_codec(Kind::kFloodHit, encode_flood_hit, decode_flood_hit);
  register_codec(Kind::kSliceRequest, encode_slice, decode_slice);
  register_codec(Kind::kSliceReply, encode_slice, decode_slice);
}

}  // namespace detail

std::size_t paper_layout_savings(const Message& m) {
  const Kind k = m.kind();
  if (k != Kind::kCyclonRequest && k != Kind::kCyclonReply &&
      k != Kind::kVicinityRequest && k != Kind::kVicinityReply)
    return 0;
  const std::size_t paper = 1 + plain_descriptors_size(gossip_entries(m));
  const std::size_t sent = m.wire_size();
  return paper > sent ? paper - sent : 0;
}

}  // namespace ares::wire
