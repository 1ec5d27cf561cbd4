#include "exp/grid.h"

#include <cassert>
#include <stdexcept>

#include "sim/latency.h"
#include "space/cells.h"

namespace ares {
namespace {

std::unique_ptr<LatencyModel> latency_from_name(const std::string& name,
                                                std::uint64_t seed) {
  if (name == "lan") return make_lan_latency();
  if (name == "wan") return make_wan_latency();
  if (name == "planetlab") return make_planetlab_latency(seed);
  if (name == "fixed") return std::make_unique<ConstantLatency>(1 * kMillisecond);
  throw std::invalid_argument("Grid: unknown latency model '" + name + "'");
}

}  // namespace

Grid::Grid(Config cfg, PointGenerator generator)
    : cfg_(std::move(cfg)),
      generator_(std::move(generator)),
      store_(std::make_unique<DescriptorStore>(cfg_.space)),
      node_seeder_(cfg_.seed ^ 0xA5A5A5A5ULL) {
  assert(generator_ != nullptr);
  if (cfg_.trace_queries && cfg_.shards > 1)
    throw std::invalid_argument("Grid: trace_queries needs shards == 1");
  auto latency = latency_from_name(cfg_.latency, cfg_.seed);
  // The latency floor is the lookahead window: every message crosses a
  // window barrier, which is what makes the sharded drain deterministic.
  sim_ = std::make_unique<Simulator>(cfg_.seed, cfg_.shards, latency->min_latency());
  // One sink per shard, sized by the count the Simulator just validated.
  stats_ = std::make_unique<QueryStats>(cfg_.track_visited, cfg_.shards);
  net_ = std::make_unique<Network>(*sim_, std::move(latency));
  store_->reserve(cfg_.nodes);
  net_->reserve(cfg_.nodes);
  if (cfg_.trace_queries) tracer_ = std::make_unique<QueryTracer>(&stats_->sink(0));
  for (std::size_t i = 0; i < cfg_.nodes; ++i) add_node();
  if (cfg_.oracle) {
    rebootstrap();
  } else if (cfg_.convergence > 0) {
    sim_->run_until(sim_->now() + cfg_.convergence);
  }
}

Grid::~Grid() = default;

std::unique_ptr<Node> Grid::make_node(Point values, std::uint32_t shard) {
  auto introducers = sample_introducers(cfg_.bootstrap_contacts);
  QueryObserver* observer = tracer_ != nullptr
                                ? static_cast<QueryObserver*>(tracer_.get())
                                : &stats_->sink(shard);
  return std::make_unique<SelectionNode>(cfg_.space, *store_, std::move(values),
                                         cfg_.protocol, std::move(introducers),
                                         node_seeder_.fork(), observer);
}

std::vector<PeerDescriptor> Grid::sample_introducers(std::size_t k) {
  std::vector<PeerDescriptor> out;
  const auto& alive = net_->alive_ids();
  if (alive.empty() || k == 0) return out;
  k = std::min(k, alive.size());
  for (std::size_t idx : node_seeder_.sample_indices(alive.size(), k)) {
    if (auto* sn = net_->find_as<SelectionNode>(alive[idx]))
      out.push_back(sn->descriptor());
  }
  return out;
}

NodeId Grid::add_node(Point values) {
  const std::uint32_t shard =
      shard_of_coord(cfg_.space, cfg_.space.coord_of(values), cfg_.shards);
  return net_->add_node(make_node(std::move(values), shard), shard);
}

NodeId Grid::add_node() { return add_node(generator_(node_seeder_)); }

void Grid::remove_node(NodeId id, bool graceful) { net_->remove_node(id, graceful); }

std::vector<NodeId> Grid::node_ids() {
  std::vector<NodeId> out;
  for (NodeId id : net_->alive_ids())
    if (net_->find_as<SelectionNode>(id) != nullptr) out.push_back(id);
  return out;
}

NodeId Grid::random_node() {
  const auto& alive = net_->alive_ids();
  assert(!alive.empty());
  return alive[node_seeder_.index(alive.size())];
}

SelectionNode& Grid::node(NodeId id) {
  auto* sn = net_->find_as<SelectionNode>(id);
  assert(sn != nullptr);
  return *sn;
}

ChurnDriver::NodeFactory Grid::churn_factory() {
  // ChurnDriver adds its nodes on shard 0 (Network::add_node's default), so
  // they report to sink 0.
  return [this] { return make_node(generator_(node_seeder_), /*shard=*/0); };
}

void Grid::rebootstrap() { oracle_bootstrap(*net_, *store_, cfg_.oracle_options); }

Grid::QueryOutcome Grid::run_query(NodeId origin, const RangeQuery& q,
                                   std::uint32_t sigma, SimTime horizon) {
  QueryOutcome out;
  const SimTime issued = sim_->now();
  bool done = false;
  out.id = node(origin).submit(q, sigma, [&](const std::vector<MatchRecord>& m) {
    out.completed = true;
    out.matches = m;
    out.latency = sim_->now() - issued;
    done = true;
  });
  const SimTime deadline = issued + horizon;
  while (!done && !sim_->idle() && sim_->now() <= deadline) sim_->step();
  return out;
}

QueryId Grid::submit(NodeId origin, const RangeQuery& q, std::uint32_t sigma) {
  return node(origin).submit(q, sigma, nullptr);
}

std::vector<NodeId> Grid::ground_truth(const RangeQuery& q) {
  std::vector<NodeId> out;
  for (NodeId id : net_->alive_ids()) {
    auto* sn = net_->find_as<SelectionNode>(id);
    if (sn == nullptr) continue;
    if (q.matches(store_->values_ptr(id)) && q.matches_dynamic(sn->dynamic_values()))
      out.push_back(id);
  }
  return out;
}

}  // namespace ares
