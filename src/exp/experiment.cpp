#include "exp/experiment.h"

#include <algorithm>

namespace ares::exp {

Histogram latency_histogram() {
  return Histogram::exponential(1e-4, 1.35, 48);
}

QueryRunStats run_queries(Grid& grid, const std::vector<RangeQuery>& queries,
                          std::uint32_t sigma, std::size_t origins_per_query,
                          SimTime horizon) {
  grid.stats().clear();
  QueryRunStats out;
  const std::uint64_t events_before = grid.sim().executed_events();
  const std::uint64_t late_before = grid.sim().late_events();
  Summary overhead, delivery, matches, latency;

  for (const auto& q : queries) {
    for (std::size_t i = 0; i < origins_per_query; ++i) {
      const std::size_t truth = grid.ground_truth(q).size();
      NodeId origin = grid.random_node();
      auto outcome = grid.run_query(origin, q, sigma, horizon);
      ++out.queries;
      const auto* pq = grid.stats().find(outcome.id);
      if (pq != nullptr) {
        overhead.add(static_cast<double>(pq->overhead));
        if (truth > 0) {
          // With a threshold, full delivery means sigma (or truth) nodes.
          // sigma queries can legitimately overshoot (the level-0 phase
          // probes all matching cohabitants at once), so clamp at 1.
          const double want = std::min<double>(static_cast<double>(truth),
                                               static_cast<double>(sigma));
          delivery.add(std::min(1.0, static_cast<double>(pq->hits) / want));
        }
        out.duplicates += pq->duplicates;
      }
      if (outcome.completed) {
        ++out.completed;
        matches.add(static_cast<double>(outcome.matches.size()));
        latency.add(to_seconds(outcome.latency));
      }
    }
  }
  out.mean_overhead = overhead.mean();
  out.mean_delivery = delivery.mean();
  out.mean_matches = matches.mean();
  out.mean_latency_s = latency.mean();
  // Interpolated sample quantiles (Summary), not histogram-bucket upper
  // bounds: bucket edges snapped nearby percentiles (p95 == p99) at the
  // query counts the figure benches run.
  if (!latency.empty()) {
    out.p50_latency_s = latency.quantile(0.50);
    out.p95_latency_s = latency.quantile(0.95);
    out.p99_latency_s = latency.quantile(0.99);
  }
  out.sim_events = grid.sim().executed_events() - events_before;
  out.late_events = grid.sim().late_events() - late_before;
  return out;
}

std::vector<DeliveryPoint> delivery_timeline(
    Grid& grid, std::function<RangeQuery(Rng&)> query_gen, SimTime duration,
    SimTime interval, SimTime settle, std::uint32_t sigma) {
  struct Probe {
    QueryId id;
    SimTime issued;
    std::size_t truth;
  };
  std::vector<Probe> probes;
  Simulator& sim = grid.sim();
  const SimTime start = sim.now();

  // Schedule all issue events up front; ground truth is captured at issue.
  for (SimTime t = start + interval; t <= start + duration; t += interval) {
    sim.schedule_at(t, [&grid, &probes, query_gen, sigma] {
      RangeQuery q = query_gen(grid.sim().rng());
      std::size_t truth = grid.ground_truth(q).size();
      if (truth == 0) return;  // degenerate probe; skip
      NodeId origin = grid.random_node();
      QueryId qid = grid.submit(origin, q, sigma);
      probes.push_back({qid, grid.sim().now(), truth});
    });
  }
  sim.run_until(start + duration + settle);

  std::vector<DeliveryPoint> out;
  out.reserve(probes.size());
  for (const auto& p : probes) {
    const auto* pq = grid.stats().find(p.id);
    double hits = pq != nullptr ? static_cast<double>(pq->hits) : 0.0;
    double want = std::min<double>(static_cast<double>(p.truth),
                                   static_cast<double>(sigma));
    out.push_back({to_seconds(p.issued - start), std::min(1.0, hits / want), p.truth});
  }
  return out;
}

LoadResult measure_load(Grid& grid, const std::vector<RangeQuery>& queries,
                        std::uint32_t sigma, std::size_t origins_per_query) {
  Network& net = grid.net();
  net.set_load_filter([](const Message& m) {
    std::string_view t = m.type_name();
    return t.starts_with("select.");
  });
  net.reset_node_load();

  for (const auto& q : queries)
    for (std::size_t i = 0; i < origins_per_query; ++i)
      grid.run_query(grid.random_node(), q, sigma);

  // Read after the run: stats() folds in what the shard drains counted.
  const NetworkStats& ns = net.stats();
  LoadResult out;
  out.sent = ns.load_sent_by_node();
  out.received = ns.load_received_by_node();
  net.set_load_filter(nullptr);
  return out;
}

Summary neighbor_counts(Grid& grid) {
  Summary s;
  for (NodeId id : grid.node_ids())
    s.add(static_cast<double>(grid.node(id).routing().primary_link_count()));
  return s;
}

Histogram percent_of_max_histogram(const std::vector<std::uint64_t>& counts) {
  Histogram h = Histogram::fixed_width(10.0, 10);  // 0-10,...,90-100 % of max
  std::uint64_t max = 0;
  for (auto c : counts) max = std::max(max, c);
  if (max == 0) return h;
  for (auto c : counts)
    h.add(100.0 * static_cast<double>(c) / static_cast<double>(max));
  return h;
}

}  // namespace ares::exp
