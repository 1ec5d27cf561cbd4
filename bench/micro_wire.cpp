/// Codec microbenchmarks: encode, decode and size throughput for every
/// wire::Kind.
///
/// Each kind is measured on a representative steady-state message (gossip
/// exchanges carry 8 descriptors at d=5, queries carry 5 ranges, ...), and
/// a 1,000-record reply stands for the long answers of unbounded queries.
/// The size direction is wire::encoded_size(), the per-send accounting
/// path of the simulator. BENCH_micro_wire.json records msgs/sec per
/// direction (MB/sec for encode and decode) so the codec's perf trajectory
/// is tracked alongside the simulator micro numbers (BENCH_micro_sim.json).
///
/// ARES_WIRE_OPS scales the per-kind iteration count (default 200,000).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/options.h"
#include "exp/bench_json.h"
#include "exp/reporting.h"
#include "wire/codecs.h"

namespace {

using namespace ares;
using Clock = std::chrono::steady_clock;

PeerDescriptor bench_descriptor(NodeId id) {
  return PeerDescriptor{id, {10, 20, 30, 40, 50}, 4};
}

std::vector<PeerDescriptor> bench_descriptors(std::size_t n) {
  std::vector<PeerDescriptor> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(bench_descriptor(static_cast<NodeId>(i + 1)));
  return v;
}

RangeQuery bench_query() {
  auto q = RangeQuery::any(5).with(0, 10, 20).with(2, std::nullopt, 60).with(4, 7, 9);
  q.with_dynamic(1, 100, 200);
  return q;
}

/// The per-kind representative messages, sized like steady-state traffic.
std::vector<MessagePtr> representative_messages() {
  std::vector<MessagePtr> out;

  for (bool reply : {false, true}) {
    auto c = std::make_unique<CyclonShuffleMsg>();
    c->is_reply = reply;
    c->entries = bench_descriptors(8);
    out.push_back(std::move(c));
    auto v = std::make_unique<VicinityExchangeMsg>();
    v->is_reply = reply;
    v->entries = bench_descriptors(8);
    out.push_back(std::move(v));
  }

  auto q = std::make_unique<QueryMsg>();
  q->id = 0xABCDEF0012345678ULL;
  q->reply_to = 17;
  q->origin = 3;
  q->sigma = 50;
  q->level = 2;
  q->dims_mask = 0b11111;
  q->query = bench_query();
  out.push_back(std::move(q));

  for (NodeId records : {10, 1000}) {
    auto r = std::make_unique<ReplyMsg>();
    r->id = 99;
    for (NodeId i = 1; i <= records; ++i) r->matching.push_back({i, {1, 2, 3, 4, 5}});
    out.push_back(std::move(r));
  }

  auto p = std::make_unique<ProgressMsg>();
  p->id = 0x1122334455667788ULL;
  out.push_back(std::move(p));

  auto put = std::make_unique<DhtPutMsg>();
  put->key = 0xFEED;
  put->record = {12, {7, 8, 9, 10, 11}};
  out.push_back(std::move(put));

  auto get = std::make_unique<DhtGetMsg>();
  get->key = 5;
  get->origin = 77;
  get->request_id = 31337;
  out.push_back(std::move(get));

  auto recs = std::make_unique<DhtRecordsMsg>();
  recs->request_id = 8;
  recs->key = 9;
  for (NodeId i = 1; i <= 5; ++i) recs->records.push_back({i, {1, 2, 3, 4, 5}});
  out.push_back(std::move(recs));

  auto fq = std::make_unique<FloodQueryMsg>();
  fq->id = 4242;
  fq->origin = 7;
  fq->ttl = 5;
  fq->query = bench_query();
  out.push_back(std::move(fq));

  auto fh = std::make_unique<FloodHitMsg>();
  fh->id = 4242;
  fh->match = {22, {1, 2, 3, 4, 5}};
  out.push_back(std::move(fh));

  for (bool reply : {false, true}) {
    auto s = std::make_unique<SliceExchangeMsg>();
    s->is_reply = reply;
    s->attribute = 0.25;
    s->slice_value = 0.75;
    s->swapped = reply;
    out.push_back(std::move(s));
  }

  return out;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  const std::uint64_t ops = option_u64("WIRE_OPS", 200'000);
  std::cout << "codec throughput per wire kind, " << ops
            << " ops/direction (ARES_WIRE_OPS to scale)\n\n";

  exp::BenchReport report("micro_wire");
  report.set_threads(1);

  exp::Table t({"kind", "type", "frame B", "enc Mmsg/s", "enc MB/s", "dec Mmsg/s",
                "dec MB/s", "size ns/msg"});

  const std::vector<MessagePtr> messages = representative_messages();
  double total_enc_mb = 0, total_dec_mb = 0;
  for (const MessagePtr& m : messages) {
    const auto bytes = wire::encode(*m);
    if (bytes.empty()) {
      std::cerr << "FAIL: no codec for " << m->type_name() << "\n";
      return 1;
    }

    // Encode direction: full frame into a fresh buffer each iteration (what
    // a loopback or UDP send pays), checksummed so the work cannot be elided.
    std::uint64_t sink = 0;
    const auto e0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      wire::Writer w;
      wire::encode(*m, w);
      sink += w.size();
    }
    const double enc_s = seconds_since(e0);

    // Decode direction: parse the same frame back into a fresh message.
    const auto d0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      MessagePtr out = wire::decode(bytes);
      if (out == nullptr) {
        std::cerr << "FAIL: decode failed for " << m->type_name() << "\n";
        return 1;
      }
      sink += static_cast<std::uint64_t>(out->wire_size());
    }
    const double dec_s = seconds_since(d0);

    // Size direction: the frame length without encoding, as every
    // simulator send meters it (the message's cached size is bypassed).
    const auto s0 = Clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) sink += wire::encoded_size(*m);
    const double size_s = seconds_since(s0);
    if (sink == 0) std::cerr << "";  // keep the checksum alive

    const double frame = static_cast<double>(bytes.size());
    const double enc_msgs = static_cast<double>(ops) / enc_s;
    const double dec_msgs = static_cast<double>(ops) / dec_s;
    const double size_msgs = static_cast<double>(ops) / size_s;
    const double enc_mb = enc_msgs * frame / 1e6;
    const double dec_mb = dec_msgs * frame / 1e6;
    total_enc_mb += enc_mb;
    total_dec_mb += dec_mb;

    const int kind = static_cast<int>(m->kind());
    t.row({std::to_string(kind), m->type_name(), std::to_string(bytes.size()),
           exp::fmt(enc_msgs / 1e6), exp::fmt(enc_mb), exp::fmt(dec_msgs / 1e6),
           exp::fmt(dec_mb), exp::fmt(1e9 / size_msgs)});
    report.point()
        .num("kind", static_cast<std::uint64_t>(kind))
        .str("type", m->type_name())
        .num("frame_bytes", static_cast<std::uint64_t>(bytes.size()))
        .num("encode_msgs_per_sec", enc_msgs)
        .num("encode_mb_per_sec", enc_mb)
        .num("decode_msgs_per_sec", dec_msgs)
        .num("decode_mb_per_sec", dec_mb)
        .num("size_msgs_per_sec", size_msgs);
  }
  t.print();

  // events_per_sec falls back to this codec op rate (no simulator runs here).
  const auto count = static_cast<double>(messages.size());
  report.add_ops(3 * ops * messages.size());
  report.summary()
      .num("messages", static_cast<std::uint64_t>(messages.size()))
      .num("ops_per_direction", ops)
      .num("mean_encode_mb_per_sec", total_enc_mb / count)
      .num("mean_decode_mb_per_sec", total_dec_mb / count);
  report.write();
  return 0;
}
