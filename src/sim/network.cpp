#include "sim/network.h"

#include <cassert>

#include "common/hashing.h"
#include "runtime/wire.h"

namespace ares {

Network::Network(Simulator& sim, std::unique_ptr<LatencyModel> latency)
    : sim_(sim),
      latency_(std::move(latency)),
      shard_stats_(sim.shards()),
      latency_seed_(hash_mix(sim.seed(), 0x4C415443ULL /* "LATC" */)),
      m_wire_bytes_saved_(metrics().counter("wire.bytes_delta_saved")) {
  assert(latency_ != nullptr);
  assert(latency_->min_latency() >= sim_.window() &&
         "latency floor below the lookahead window");
  // Owner-guarded timers (node_timer) consult this at execution time; the
  // membership map is coordinator-mutated only, so the read is worker-safe.
  sim_.set_liveness([this](NodeId id) { return alive(id); });
}

Network::~Network() = default;

const NetworkStats& Network::stats() {
  assert(Simulator::current_shard() < 0);
  for (NetworkStats& s : shard_stats_) stats_.absorb(s);
  return stats_;
}

void Network::set_load_filter(NetworkStats::LoadFilter f) {
  for (NetworkStats& s : shard_stats_) s.set_load_filter(f);
  stats_.set_load_filter(std::move(f));
}

void Network::reset_node_load() {
  for (NetworkStats& s : shard_stats_) s.reset_node_load();
  stats_.reset_node_load();
}

NetworkStats& Network::stats_sink() {
  const int s = Simulator::current_shard();
  return s < 0 ? stats_ : shard_stats_[static_cast<std::size_t>(s)];
}

NodeId Network::add_node(std::unique_ptr<Node> node, std::uint32_t shard) {
  assert(node != nullptr && !node->attached());
  const auto id = static_cast<NodeId>(nodes_.size());
  sim_.set_node_shard(id, shard);
  // Worker-phase metric bumps index into per-counter vectors; growing them
  // lazily there would race, so the registry is pre-sized on every join
  // (amortized O(1) per node).
  metrics().reserve_nodes(static_cast<std::size_t>(id) + 1);
  bind(*node, *this, id);
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  ++population_;
  // Ids are monotonically increasing, so appending keeps the cache sorted:
  // no need to invalidate and pay a full rebuild per add. Bootstrap
  // samples introducers from alive_ids() after every join, which made grid
  // construction O(n^2 log n) before this.
  if (alive_cache_valid_) alive_cache_.push_back(id);
  raw->start();
  return id;
}

void Network::reserve(std::size_t nodes) {
  nodes_.reserve(nodes);
  alive_cache_.reserve(nodes);
  sim_.reserve_nodes(nodes);
  metrics().reserve_capacity(nodes);
}

void Network::remove_node(NodeId id, bool graceful) {
  Node* node = find(id);
  if (node == nullptr) return;
  if (graceful) node->stop();
  unbind(*node);
  nodes_[id].reset();
  --population_;
  alive_cache_valid_ = false;
}

const std::vector<NodeId>& Network::alive_ids() const {
  if (!alive_cache_valid_) {
    alive_cache_.clear();
    alive_cache_.reserve(population_);
    for (std::size_t id = 0; id < nodes_.size(); ++id)
      if (nodes_[id] != nullptr) alive_cache_.push_back(static_cast<NodeId>(id));
    alive_cache_valid_ = true;
  }
  return alive_cache_;
}

void Network::send(NodeId from, NodeId to, MessagePtr m) {
  assert(m != nullptr);
  // Paper-layout reconciliation: on_send counts the frame actually sent;
  // this meters what the paper's descriptor-list layout would have added.
  // Sizes the message once (wire_size() caches it for on_send).
  if (std::size_t saved = wire::paper_layout_savings(*m); saved > 0)
    metrics().inc(from, m_wire_bytes_saved_, saved);
  stats_sink().on_send(from, *m);
  // Keyed delivery: the event key orders the destination's history
  // independently of the shard count, and the latency draw comes from a
  // per-message stream derived from (seed, key, dst) — a shared Rng would
  // tie the draw sequence to the drain interleaving. Ownership of the
  // message moves straight into the (move-only, small-buffer) event closure.
  const std::uint64_t key = sim_.alloc_key(from);
  Rng lat_rng(hash_mix(hash_mix(latency_seed_, key), to));
  const SimTime latency = latency_->sample(lat_rng, from, to);
  sim_.schedule(to, key, sim_.now() + latency, [this, from, to, msg = std::move(m)] {
    Node* dst = find(to);
    NetworkStats& st = stats_sink();
    if (dst == nullptr) {
      st.on_drop(*msg);
      return;
    }
    st.on_deliver(to, *msg);
    dst->on_message(from, *msg);
  });
}

void Network::node_timer(NodeId id, SimTime delay, UniqueAction fn) {
  // Owner-guarded scheduling: the caller's move-only action lands in the
  // event heap as-is and the liveness probe (installed in the ctor) decides
  // at pop time. Wrapping it in an alive-check closure here would force a
  // heap allocation per timer — a UniqueAction nested in another closure can
  // never fit the inline buffer.
  sim_.schedule_owned_after(delay, id, std::move(fn));
}
}  // namespace ares
