/// Figure 8: routing overhead vs. number of dimensions (attributes).
///
/// Paper: with defaults (f=0.125, sigma=50) the overhead stays very low
/// (<~3 messages) from 2 to 20 dimensions, in both the PeerSim and the DAS
/// setups — the property that distinguishes this design from
/// CAN/Voronoi-style partitions whose complexity explodes with d.
///
/// Each (panel, d) point is an independent trial run on ARES_THREADS
/// workers; rows are buffered and printed in order.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct PointConfig {
  int panel;
  int dims;
  std::uint64_t seed;
};

struct PointResult {
  exp::QueryRunStats stats;
  SimTotals totals;
};

struct Panel {
  const char* title;
  std::size_t n;
  const char* latency;
};

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 8", "routing overhead vs. dimensions",
      "overhead remains very low (a few msgs/query) from d=2 to d=20; "
      "slight rise with d in PeerSim, roughly constant on DAS — variations "
      "within statistical noise");
  Setup s = read_setup(10000);
  print_setup(s);

  const Panel panels[] = {
      {"PeerSim setup", s.n, "wan"},
      {"DAS setup", option_u64("DAS_N", 1000), "lan"},
  };
  std::vector<int> dims{2, 4, 6, 8, 10, 12, 16, 20};
  drop_unsupported_dims("fig08", dims);
  // Enough repetitions that interpolated p95 and p99 separate.
  const std::size_t reps = option_u64("QUERIES", 50);

  std::vector<PointConfig> configs;
  for (int p = 0; p < 2; ++p) {
    const std::uint64_t base = p == 0 ? s.seed : s.seed + 100;
    for (int d : dims)
      configs.push_back({p, d, base + static_cast<std::uint64_t>(d)});
  }

  const std::size_t threads = exp::resolve_threads(configs.size());
  exp::BenchReport report("fig08_dimensions");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      configs,
      [&](const PointConfig& c, std::size_t trial) {
        const Panel& panel = panels[c.panel];
        Setup cur;
        cur.n = panel.n;
        cur.dims = c.dims;
        cur.seed = c.seed;
        cur.queries = reps;
        cur.shards = s.shards;
        auto grid = make_oracle_grid(cur, panel.latency);
        Rng rng(exp::trial_seed(c.seed, trial));
        auto queries = default_queries(*grid, cur, rng);
        PointResult r;
        r.stats = exp::run_queries(*grid, queries, 50, 1);
        r.totals = totals_of(*grid);
        return r;
      },
      threads);

  std::size_t i = 0;
  for (int p = 0; p < 2; ++p) {
    const Panel& panel = panels[p];
    std::cout << "-- " << panel.title << " (N=" << panel.n << ") --\n";
    exp::Table t({"dimensions", "overhead (msgs/query)", "delivery"});
    for (int d : dims) {
      const PointResult& r = results[i++];
      t.row({std::to_string(d), exp::fmt(r.stats.mean_overhead),
             exp::fmt(r.stats.mean_delivery)});
      report.point()
          .str("panel", panel.title)
          .num("dims", static_cast<std::int64_t>(d))
          .num("overhead", r.stats.mean_overhead)
          .num("delivery", r.stats.mean_delivery)
          .num("latency_p50_s", r.stats.p50_latency_s)
          .num("latency_p95_s", r.stats.p95_latency_s)
          .num("latency_p99_s", r.stats.p99_latency_s)
          .num("sim_events", r.totals.events)
          .num("late_events", r.totals.late);
      report.add_events(r.totals.events, r.totals.late);
    }
    t.print();
    exp::maybe_export_csv(t,
                          std::string("fig08_dimensions_") + std::to_string(panel.n));
  }
  report.write();
  return 0;
}
