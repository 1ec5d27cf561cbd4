/// Figure 7: routing overhead vs. query selectivity.
///
/// Paper, 7(a) PeerSim (N=100,000): best-case queries (single-cell-aligned)
/// cost almost nothing at every selectivity; worst-case queries (crossing
/// every dimension/level split) peak at a few hundred messages around
/// f~0.125 and DROP as f grows (fewer non-matching nodes exist); with
/// sigma=50 even worst-case queries stay cheap.
/// 7(b) DAS (N=1,000): same shape — worst-case overhead is set by the
/// topology (dimensions x nesting depth), not by N.
///
/// Every (panel, f) point is an independent trial with its own grid, so the
/// sweep runs on ARES_THREADS workers; rows are buffered and printed in
/// order by the main thread.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct PointConfig {
  int panel;  // index into the panels table below
  double f;
  std::uint64_t grid_seed;
};

struct PointResult {
  exp::QueryRunStats best_inf, worst_inf, worst_sigma;
  SimTotals totals;
};

struct Panel {
  const char* title;
  std::size_t n;
  const char* latency;
  bool with_sigma_series;
};

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 7", "routing overhead vs. selectivity (best/worst case)",
      "best case ~0 everywhere; worst case peaks at low-mid f (e.g. ~257 msgs "
      "at f=0.125 with 12,500 matches in the paper) and decreases toward "
      "f=1; sigma=50 keeps overhead tiny; worst-case overhead similar at "
      "N=1,000 and N=100,000 (depends on topology, not size)");

  Setup s = read_setup(20000);
  print_setup(s);

  const Panel panels[] = {
      {"(a) PeerSim setup, WAN latency", s.n, "wan", true},
      {"(b) DAS setup, LAN latency", option_u64("DAS_N", 1000), "lan", false},
  };
  const std::vector<double> fs{0.03, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0};
  // Enough repetitions that interpolated p95 and p99 separate.
  const std::size_t reps = option_u64("QUERIES", 25);

  std::vector<PointConfig> configs;
  for (int p = 0; p < 2; ++p)
    for (double f : fs)
      configs.push_back({p, f, s.seed + static_cast<std::uint64_t>(p)});

  const std::size_t threads = exp::resolve_threads(configs.size());
  exp::BenchReport report("fig07_selectivity");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      configs,
      [&](const PointConfig& c, std::size_t trial) {
        const Panel& panel = panels[c.panel];
        Setup cur;
        cur.n = panel.n;
        cur.seed = c.grid_seed;
        cur.shards = s.shards;
        auto grid = make_oracle_grid(cur, panel.latency);
        Rng rng(exp::trial_seed(c.grid_seed, trial));
        std::vector<RangeQuery> best, worst;
        for (std::size_t i = 0; i < reps; ++i) {
          best.push_back(best_case_query(grid->space(), c.f, rng));
          worst.push_back(worst_case_query(grid->space(), c.f));
        }
        PointResult r;
        r.best_inf = exp::run_queries(*grid, best, kNoSigma, 1);
        r.worst_inf = exp::run_queries(*grid, worst, kNoSigma, 1);
        if (panel.with_sigma_series)
          r.worst_sigma = exp::run_queries(*grid, worst, 50, 1);
        r.totals = totals_of(*grid);
        return r;
      },
      threads);

  std::size_t i = 0;
  for (int p = 0; p < 2; ++p) {
    const Panel& panel = panels[p];
    std::cout << "-- " << panel.title << " (N=" << panel.n << ") --\n";
    std::vector<std::string> headers{"f", "matches", "best case (sigma=inf)",
                                     "worst case (sigma=inf)"};
    if (panel.with_sigma_series) headers.push_back("worst case (sigma=50)");
    exp::Table t(headers);
    for (double f : fs) {
      const PointResult& r = results[i++];
      std::vector<std::string> row{exp::fmt(f, 4),
                                   exp::fmt(r.worst_inf.mean_matches, 0),
                                   exp::fmt(r.best_inf.mean_overhead),
                                   exp::fmt(r.worst_inf.mean_overhead)};
      if (panel.with_sigma_series)
        row.push_back(exp::fmt(r.worst_sigma.mean_overhead));
      t.row(std::move(row));
      report.point()
          .str("panel", panel.title)
          .num("f", f)
          .num("best_overhead", r.best_inf.mean_overhead)
          .num("worst_overhead", r.worst_inf.mean_overhead)
          .num("best_latency_p50_s", r.best_inf.p50_latency_s)
          .num("best_latency_p95_s", r.best_inf.p95_latency_s)
          .num("best_latency_p99_s", r.best_inf.p99_latency_s)
          .num("worst_latency_p50_s", r.worst_inf.p50_latency_s)
          .num("worst_latency_p95_s", r.worst_inf.p95_latency_s)
          .num("worst_latency_p99_s", r.worst_inf.p99_latency_s)
          .num("sim_events", r.totals.events)
          .num("late_events", r.totals.late);
      report.add_events(r.totals.events, r.totals.late);
    }
    t.print();
  }
  report.write();
  return 0;
}
