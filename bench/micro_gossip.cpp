/// Gossip steady-state microbenchmark with heap-allocation accounting.
///
/// Drives a small cluster of CYCLON + Vicinity + RoutingTable stacks (the
/// exact per-cycle work SelectionNode::gossip_tick performs, and the routing
/// refresh SelectionNode::on_message runs after each gossip frame) with
/// immediate in-process message delivery, and reports ns and heap
/// allocations per node-cycle at d in {2, 3, 5} in BENCH_micro_gossip.json.
///
/// The allocation count is a CI regression gate, like micro_sim's delivery
/// gate: once warm, a gossip node-cycle — tick both layers, handle the
/// partner's exchange, merge, refresh the routing table — must not touch
/// the heap at all. Descriptors live inline (common/inline_vec.h), exchange
/// messages and their entry buffers come from per-thread pools, and the
/// selection scratch is reused; the binary exits nonzero if any measured
/// configuration allocates in steady state.
///
/// ARES_MICRO_CYCLES scales the measured cycles (default 2000 per d).

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <vector>

#include "common/options.h"
#include "common/rng.h"
#include "core/routing_table.h"
#include "core/selection_node.h"
#include "exp/bench_json.h"
#include "exp/reporting.h"
#include "gossip/cyclon.h"
#include "gossip/vicinity.h"
#include "space/cells.h"
#include "space/descriptor_store.h"
#include "workload/distributions.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// Process-wide allocation counter: every operator new in this binary bumps
// g_allocs (same scheme as bench/micro_sim.cpp).
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

/// One protocol node's gossip state, wired for immediate delivery.
struct GossipHost {
  NodeId id;
  std::unique_ptr<Cyclon> cyclon;
  std::unique_ptr<Vicinity> vicinity;
  std::unique_ptr<RoutingTable> rt;
  /// rt->losses() at the last full refresh; stale until the first one. (The
  /// bench's store rows never move, so the losses are the whole epoch.)
  std::uint32_t synced = ~std::uint32_t{0};

  /// SelectionNode::refresh_routing(): every entry of both views.
  void refresh_all() {
    for (const CompactPeer c : cyclon->view().entries()) rt->offer(c);
    for (const CompactPeer c : vicinity->view().entries()) rt->offer(c);
    synced = rt->losses();
  }

  /// The refresh after a frame: the received entries `view` now holds.
  void refresh(const View& view, const std::vector<PeerDescriptor>& received) {
    if (synced != rt->losses()) {
      refresh_all();
      return;
    }
    for (const PeerDescriptor& d : received)
      if (const CompactPeer* c = view.find(d.id)) rt->offer(*c);
  }
};

/// A cluster of hosts exchanging messages synchronously (no simulator: the
/// bench isolates the gossip layers' own work from event-queue costs).
class Cluster {
 public:
  Cluster(const AttributeSpace& space, const Cells& cells, std::size_t n,
          Rng& rng)
      : store_(space) {
    auto gen = uniform_points(space, 0, 80);
    std::vector<PeerDescriptor> all;
    all.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
      all.push_back(PeerDescriptor{i, gen(rng)});
      store_.put(i, all.back().values);
    }
    hosts_.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
      auto host = std::make_unique<GossipHost>();
      host->id = i;
      auto send = [this, i](NodeId to, MessagePtr m) {
        deliver(i, to, std::move(m));
      };
      host->cyclon = std::make_unique<Cyclon>(i, store_, cfg_.cyclon, rng_, send);
      host->vicinity =
          std::make_unique<Vicinity>(i, cells, store_, cfg_.vicinity, rng_, send);
      host->rt = std::make_unique<RoutingTable>(cells, i, cfg_.routing, store_);
      hosts_.push_back(std::move(host));
    }
    // Bootstrap every node with a handful of ring neighbors.
    for (NodeId i = 0; i < n; ++i) {
      std::vector<PeerDescriptor> contacts;
      for (std::size_t k = 1; k <= 5; ++k)
        contacts.push_back(all[(i + k) % n]);
      hosts_[i]->cyclon->seed(contacts);
      hosts_[i]->vicinity->seed(contacts, hosts_[i]->cyclon->view());
    }
  }

  std::size_t size() const { return hosts_.size(); }

  /// One gossip node-cycle: what SelectionNode::gossip_tick does per node,
  /// including the synchronous handling of every triggered exchange.
  void node_cycle(std::size_t i) {
    GossipHost& h = *hosts_[i];
    h.cyclon->tick();
    h.vicinity->tick(h.cyclon->view());
    h.rt->age_all();
    h.rt->drop_older_than(cfg_.rt_max_age);
    h.refresh_all();
  }

 private:
  /// SelectionNode::on_message for a gossip frame.
  void deliver(NodeId from, NodeId to, MessagePtr m) {
    GossipHost& h = *hosts_[to];
    if (h.cyclon->handle(from, *m)) {
      h.refresh(h.cyclon->view(), static_cast<const CyclonShuffleMsg&>(*m).entries);
    } else if (h.vicinity->handle(from, *m, h.cyclon->view())) {
      h.refresh(h.vicinity->view(), static_cast<const VicinityExchangeMsg&>(*m).entries);
    }
  }

  Rng rng_{42};
  DescriptorStore store_;
  const ProtocolConfig cfg_{};  // shared by every host's layers
  std::vector<std::unique_ptr<GossipHost>> hosts_;
};

struct MicroResult {
  double ns_per_cycle = 0.0;
  double allocs_per_cycle = 0.0;
};

MicroResult bench_dims(int dims, std::uint64_t cycles) {
  auto space = AttributeSpace::uniform(dims, 3, 0, 80);
  Cells cells(space);
  Rng rng(7);
  Cluster cluster(space, cells, 32, rng);

  auto sweep = [&cluster] {
    for (std::size_t i = 0; i < cluster.size(); ++i) cluster.node_cycle(i);
  };
  // Warmup: converge the views and let every reused buffer/pool reach its
  // steady-state capacity.
  for (std::uint64_t c = 0; c < 200; ++c) sweep();

  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = Clock::now();
  for (std::uint64_t c = 0; c < cycles; ++c) sweep();
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  const std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);

  const double node_cycles = static_cast<double>(cycles * cluster.size());
  MicroResult r;
  r.ns_per_cycle = secs * 1e9 / node_cycles;
  r.allocs_per_cycle = static_cast<double>(a1 - a0) / node_cycles;
  return r;
}

}  // namespace

int main() {
  using namespace ares;

  const std::uint64_t cycles = option_u64("MICRO_CYCLES", 2000);
  exp::BenchReport report("micro_gossip");
  report.set_threads(1);

  const int all_dims[] = {2, 3, 5};
  double worst_allocs = 0.0;
  double total_cycles = 0.0;

  exp::Table t({"d", "ns/node-cycle", "allocs/node-cycle"});
  for (int d : all_dims) {
    MicroResult r = bench_dims(d, cycles);
    t.row({std::to_string(d), exp::fmt(r.ns_per_cycle, 1),
           exp::fmt(r.allocs_per_cycle, 3)});
    report.point()
        .num("dims", static_cast<std::uint64_t>(d))
        .num("ns_per_node_cycle", r.ns_per_cycle)
        .num("allocs_per_node_cycle", r.allocs_per_cycle);
    worst_allocs = std::max(worst_allocs, r.allocs_per_cycle);
    total_cycles += static_cast<double>(cycles) * 32.0;
  }
  t.print();

  // events_per_sec falls back to the node-cycle rate (no simulator here).
  report.add_ops(static_cast<std::uint64_t>(total_cycles));
  report.summary()
      .num("steady_state_allocs_per_node_cycle", worst_allocs)
      .num("measured_node_cycles", total_cycles);
  report.write();

  // Regression gate: a warm gossip node-cycle must never allocate. Timing
  // ratios are reported, not gated (CI wall clocks are noisy; allocation
  // counts are exact).
  if (worst_allocs != 0.0) {
    std::cout << "FAIL: steady-state gossip performed " << exp::fmt(worst_allocs, 4)
              << " heap allocations per node-cycle (expected 0)\n";
    return 1;
  }
  std::cout << "steady-state gossip allocations: 0 per node-cycle\n";
  return 0;
}
