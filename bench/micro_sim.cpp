/// Simulator hot-path microbenchmarks with heap-allocation accounting.
///
/// Three measurements, each reported as ns/op and allocations/op in
/// BENCH_micro_sim.json:
///
///   1. event queue push/pop throughput — the small-buffer EventQueue with
///      a 32-byte capture, which UniqueAction stores inline.
///   2. message delivery steady state — a two-node ping-pong through the
///      full Simulator/Network/latency/stats stack with a pooled message
///      type, on the S=1 engine: every delivery carries its event key and
///      draws its latency from a keyed per-message stream. The process-wide
///      operator new counter must show ZERO allocations per delivered
///      message once warm; the binary exits nonzero otherwise (CI
///      regression gate).
///   3. one Vicinity exchange (subset_for + select_best) — the gossip
///      selection hot path over reused flat scratch vectors.
///
/// ARES_MICRO_OPS scales the op counts (default 1,000,000 queue ops).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "exp/bench_json.h"
#include "exp/reporting.h"
#include "gossip/vicinity.h"
#include "runtime/wire.h"
#include "sim/latency.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "space/cells.h"
#include "space/descriptor_store.h"
#include "workload/distributions.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Process-wide allocation counter: every operator new in this binary bumps
// g_allocs. Array and sized-delete forms forward to malloc/free directly;
// over-aligned types are not used by the measured code paths.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace ares;
using Clock = std::chrono::steady_clock;

std::uint64_t sink = 0;  // defeats dead-code elimination

struct MicroResult {
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
};

/// Push+pop throughput with a 32-byte capture (within UniqueAction's
/// 48-byte inline buffer).
MicroResult bench_queue(std::uint64_t ops) {
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  EventQueue q;
  // Schedule times are precomputed so the timed loop measures queue work,
  // not the random-number generator.
  Rng rng(1);
  std::vector<SimTime> times(1 << 16);
  for (auto& t : times) t = static_cast<SimTime>(rng.below(1'000'000));
  std::size_t ti = 0;
  std::uint64_t key = 0;
  auto push_one = [&] {
    Payload p{static_cast<std::uint64_t>(times[ti]), 1, 2, 3};
    q.push_keyed(times[ti], key++, [p] { sink += p.a + p.b; });
    ti = (ti + 1) & (times.size() - 1);
  };
  for (int i = 0; i < 1024; ++i) push_one();          // steady-state backlog
  for (std::uint64_t i = 0; i < ops / 10; ++i) {      // warmup
    push_one();
    q.pop()();
  }
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    push_one();
    q.pop()();
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  MicroResult r;
  r.ns_per_op = secs * 1e9 / static_cast<double>(ops);
  r.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return r;
}

constexpr auto kPingKind = static_cast<wire::Kind>(
    static_cast<std::uint8_t>(wire::Kind::kTestBase) + 2);

/// Message type with a class-level freelist so steady-state delivery
/// recycles rather than allocates.
struct PingMsg final : Message {
  const char* type_name() const override { return "mm.ping"; }
  wire::Kind kind() const override { return kPingKind; }

  static void* operator new(std::size_t n) {
    if (free_list_ != nullptr) {
      void* p = free_list_;
      free_list_ = *static_cast<void**>(p);
      return p;
    }
    return ::operator new(n);
  }
  static void operator delete(void* p) noexcept {
    *static_cast<void**>(p) = free_list_;
    free_list_ = p;
  }
  static void drain_pool() {
    while (free_list_ != nullptr) {
      void* p = free_list_;
      free_list_ = *static_cast<void**>(p);
      ::operator delete(p);
    }
  }
  static inline void* free_list_ = nullptr;
};

// Codec because the sim sizes every send through it (traffic accounting
// counts the frame length). The body mirrors the seed's nominal 16-byte
// ping: 15 bytes of padding after the 1-byte kind tag. Sizing runs the put
// into a Sizer, which never touches the heap, so the zero-alloc gate holds.
const bool kPingCodec = [] {
  wire::register_codec(
      kPingKind,
      [](const Message&, auto& w) {
        w.u64(0);
        w.u32(0);
        w.u16(0);
        w.u8(0);
      },
      [](wire::Reader& r, wire::Kind) -> MessagePtr {
        (void)r.u64();
        (void)r.u32();
        (void)r.u16();
        (void)r.u8();
        if (!r.ok()) return nullptr;
        return std::make_unique<PingMsg>();
      });
  return true;
}();

struct PingNode final : Node {
  static inline std::uint64_t delivered = 0;
  void kick(NodeId to) { send(to, std::make_unique<PingMsg>()); }
  void on_message(NodeId from, const Message&) override {
    ++delivered;
    send(from, std::make_unique<PingMsg>());
  }
};

/// Two-node ping-pong through the full delivery stack. Returns ns and
/// allocations per delivered message in steady state.
MicroResult bench_delivery(std::uint64_t deliveries) {
  Simulator sim(1);
  Network net(sim, make_lan_latency());
  NodeId a = net.add_node(std::make_unique<PingNode>());
  NodeId b = net.add_node(std::make_unique<PingNode>());
  net.find_as<PingNode>(a)->kick(b);

  auto run_to = [&](std::uint64_t target) {
    while (PingNode::delivered < target) sim.run_until(sim.now() + kSecond);
  };
  run_to(10'000);  // warm: pool primed, queue/stat containers at capacity
  const std::uint64_t d0 = PingNode::delivered;
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  run_to(d0 + deliveries);
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t done = PingNode::delivered - d0;
  MicroResult r;
  r.ns_per_op = secs * 1e9 / static_cast<double>(done);
  r.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(done);
  return r;
}

/// One gossip-exchange worth of selection work: subset_for (what do I send
/// my partner) + select_best (what do I keep from the union).
MicroResult bench_vicinity(std::uint64_t ops) {
  auto space = AttributeSpace::uniform(5, 3, 0, 80);
  Cells cells(space);
  Rng rng(7);
  auto gen = uniform_points(space, 0, 80);

  std::vector<PeerDescriptor> candidates;
  for (NodeId i = 0; i < 60; ++i) {
    const Point values = gen(rng);
    const auto age = static_cast<std::uint32_t>(rng.below(20));
    candidates.push_back(PeerDescriptor{i, values, age});
  }
  DescriptorStore store(space);
  for (const PeerDescriptor& d : candidates) store.put(d.id, d.values);
  View cyclon(20);
  for (std::size_t i = 0; i < 20; ++i)
    cyclon.insert_evicting_oldest({candidates[i].id, candidates[i].age});

  const Point self_values = gen(rng);
  store.put(1000, self_values);
  const VicinityConfig cfg{};
  Vicinity vic(1000, cells, store, cfg, rng, [](NodeId, MessagePtr) {});
  vic.seed(candidates, cyclon);
  PeerDescriptor target{2000, gen(rng)};

  for (std::uint64_t i = 0; i < ops / 10; ++i) {  // warmup
    sink += vic.subset_for(target, cyclon, 10).size();
    sink += vic.select_best(candidates, 20).size();
  }
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    sink += vic.subset_for(target, cyclon, 10).size();
    sink += vic.select_best(candidates, 20).size();
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  MicroResult r;
  r.ns_per_op = secs * 1e9 / static_cast<double>(ops);
  r.allocs_per_op = static_cast<double>(a1 - a0) / static_cast<double>(ops);
  return r;
}

}  // namespace

int main() {
  using namespace ares;

  const std::uint64_t ops = option_u64("MICRO_OPS", 1'000'000);
  exp::BenchReport report("micro_sim");
  report.set_threads(1);

  auto queue = bench_queue(ops);
  auto delivery = bench_delivery(std::max<std::uint64_t>(ops / 5, 10'000));
  auto vicinity = bench_vicinity(std::max<std::uint64_t>(ops / 50, 1'000));
  PingMsg::drain_pool();

  exp::Table t({"benchmark", "ns/op", "allocs/op"});
  auto add = [&](const char* name, const MicroResult& r) {
    t.row({name, exp::fmt(r.ns_per_op, 1), exp::fmt(r.allocs_per_op, 3)});
    report.point()
        .str("bench", name)
        .num("ns_per_op", r.ns_per_op)
        .num("allocs_per_op", r.allocs_per_op);
  };
  add("event queue push+pop (UniqueAction)", queue);
  add("message delivery (pooled msg, full stack)", delivery);
  add("vicinity exchange (subset_for + select_best)", vicinity);
  t.print();

  // Total measured iterations across the three benchmarks: events_per_sec in
  // the report falls back to this op rate (no simulator runs here).
  report.add_ops(ops + std::max<std::uint64_t>(ops / 5, 10'000) +
                 std::max<std::uint64_t>(ops / 50, 1'000));
  report.summary()
      .num("steady_state_allocs_per_delivery", delivery.allocs_per_op)
      .num("ops", ops);
  report.write();

  // Regression gate: the delivery path must not allocate once warm
  // (allocation counts are exact; wall-clock times are only reported).
  if (delivery.allocs_per_op != 0.0) {
    std::cout << "FAIL: steady-state delivery performed "
              << exp::fmt(delivery.allocs_per_op, 4)
              << " heap allocations per message (expected 0)\n";
    return 1;
  }
  std::cout << "steady-state delivery allocations: 0 per message\n";
  return 0;
}
