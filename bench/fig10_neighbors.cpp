/// Figure 10: number of neighbors (links) per node.
///
/// Paper, 10(a): although a node nominally has d*max(l) neighbor cells,
/// most cells are empty, so the actual number of links per node is
/// virtually constant in d (and bounded by the gossip cache, 20, for low
/// d). 10(b): the distribution of per-node link counts stays under ~20-30
/// links for both uniform and normal placements; the hotspot case needs
/// slightly more links (bigger neighborsZero lists near the hotspot).
///
/// This experiment runs the real gossip stack (the cache bound is a
/// gossip-layer property), so N defaults to a modest 1,500. The nine
/// converged grids (7 dimension points + 2 placement panels) build as
/// independent trials on ARES_THREADS workers.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct TrialConfig {
  int dims;
  const char* dist;
  std::uint64_t seed;
};

struct TrialResult {
  Summary counts;
  SimTotals totals;
};

TrialResult converged_counts(const TrialConfig& c, std::size_t n, SimTime convergence,
                             std::uint32_t shards) {
  Grid::Config cfg{.space = AttributeSpace::uniform(c.dims, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = false;
  cfg.convergence = convergence;
  cfg.latency = "lan";
  cfg.seed = c.seed;
  cfg.shards = shards;
  cfg.protocol.gossip_enabled = true;
  cfg.bootstrap_contacts = 5;
  cfg.track_visited = false;
  PointGen gen = std::string(c.dist) == "normal"
                     ? hotspot_points(cfg.space)
                     : uniform_points(cfg.space, 0, 80);
  Grid grid(std::move(cfg), std::move(gen));
  TrialResult r;
  r.counts = exp::neighbor_counts(grid);
  r.totals = totals_of(grid);
  return r;
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 10", "neighbors per node",
      "(a) links/node virtually constant across d=2..20 (empty cells need no "
      "links; gossip cache bounds the total); (b) link-count distribution "
      "stays below ~20-30, normal placement slightly above uniform");

  Setup s = read_setup(1500);
  print_setup(s);
  const SimTime convergence = from_seconds(option_double("CONVERGENCE_S", 600));

  std::vector<int> dim_points{2, 4, 6, 8, 12, 16, 20};
  drop_unsupported_dims("fig10", dim_points);
  std::vector<TrialConfig> configs;
  for (int d : dim_points)
    configs.push_back({d, "uniform", s.seed + static_cast<std::uint64_t>(d)});
  configs.push_back({5, "uniform", s.seed + 77});
  configs.push_back({5, "normal", s.seed + 77});

  const std::size_t threads = exp::resolve_threads(configs.size());
  exp::BenchReport report("fig10_neighbors");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      configs,
      [&](const TrialConfig& c, std::size_t) {
        return converged_counts(c, s.n, convergence, s.shards);
      },
      threads);
  for (const auto& r : results) report.add_events(r.totals.events, r.totals.late);

  std::cout << "-- (a) mean links per node vs dimensions (gossip-converged) --\n";
  {
    exp::Table t({"dimensions", "mean links", "p95 links", "max links"});
    for (std::size_t i = 0; i < dim_points.size(); ++i) {
      const Summary& counts = results[i].counts;
      t.row({std::to_string(dim_points[i]), exp::fmt(counts.mean()),
             exp::fmt(counts.quantile(0.95)), exp::fmt(counts.max())});
      report.point()
          .num("dims", static_cast<std::int64_t>(dim_points[i]))
          .num("mean_links", counts.mean())
          .num("p95_links", counts.quantile(0.95))
          .num("max_links", counts.max());
    }
    t.print();
  }

  std::cout << "\n-- (b) distribution of links per node (d=5), uniform vs "
               "normal --\n";
  for (std::size_t j = 0; j < 2; ++j) {
    const TrialConfig& c = configs[dim_points.size() + j];
    const Summary& counts = results[dim_points.size() + j].counts;
    Histogram h = Histogram::fixed_width(3.0, 11);  // 0-2,3-5,...,>=30
    for (double v : counts.samples()) h.add(v);
    exp::print_histogram(std::string(c.dist) + ": % of nodes per links bucket", h);
    report.point()
        .str("dist", c.dist)
        .num("mean_links", counts.mean())
        .num("max_links", counts.max());
  }
  report.write();
  return 0;
}
