/// Figure 6: routing overhead vs. network size (PeerSim setup).
///
/// Paper: overhead stays below ~3 messages per query across 100..100,000
/// nodes; it grows roughly logarithmically up to ~10,000 nodes and then
/// *decreases*, because with sigma = 50 a densely populated network
/// satisfies the threshold before the query iterates all overlapping cells.
///
/// Default sizes stop at 30,000 to keep the run short; set
/// ARES_MAX_N=100000 for the paper-scale point or ARES_MAX_N=1000000 for
/// the million-node point (sharded execution + DescriptorStore; see
/// DESIGN.md), and ARES_MIN_N to skip the small sizes (the CI bench-smoke
/// profile runs the large points alone). Sweep points run in parallel
/// (ARES_THREADS workers); output is identical at any thread count, and —
/// with ARES_SHARDS >= 1 — at any shard count. Exits nonzero if any trial
/// executed late events (at paper scale a silently overloaded event queue
/// would invalidate the overhead numbers) or if peak RSS per node regresses
/// more than 15% over the recorded baseline at the 100k/1M points.

#include "bench_common.h"
#include "exp/bench_json.h"
#include "exp/parallel.h"

int main() {
  using namespace ares;
  using namespace ares::bench;

  // 100 queries per point: enough samples that interpolated p95 and p99
  // land on distinct order statistics.
  Setup s = read_setup(/*default_n=*/0, /*default_queries=*/100);
  exp::print_experiment_header(
      "Figure 6", "routing overhead vs. network size",
      "overhead < 3 msgs/query at every size; rises ~log(N) to ~10k nodes, "
      "then falls (sigma=50 satisfied early in dense networks)");
  print_setup(s);

  std::vector<std::size_t> sizes{100, 316, 1000, 3162, 10000, 30000};
  const std::size_t max_n = option_u64("MAX_N", 30000);
  const std::size_t min_n = option_u64("MIN_N", 0);
  if (max_n >= 100000) sizes.push_back(100000);
  if (max_n >= 1000000) sizes.push_back(1000000);
  while (!sizes.empty() && sizes.back() > max_n) sizes.pop_back();
  while (!sizes.empty() && sizes.front() < min_n) sizes.erase(sizes.begin());

  const std::size_t threads = exp::resolve_threads(sizes.size());
  exp::BenchReport report("fig06_network_size");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      sizes,
      [&s](std::size_t n, std::size_t trial) {
        Setup cur = s;
        cur.n = n;
        auto grid = make_oracle_grid(cur, "wan");
        Rng rng(exp::trial_seed(cur.seed, trial));
        auto queries = default_queries(*grid, cur, rng);
        return exp::run_queries(*grid, queries, sigma_of(cur), 1);
      },
      threads);

  exp::Table t({"N", "overhead (msgs/query)", "delivery", "queries"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& stats = results[i];
    t.row({std::to_string(sizes[i]), exp::fmt(stats.mean_overhead),
           exp::fmt(stats.mean_delivery), std::to_string(stats.queries)});
    report.point()
        .num("n", static_cast<std::uint64_t>(sizes[i]))
        .num("overhead", stats.mean_overhead)
        .num("delivery", stats.mean_delivery)
        .num("queries", stats.queries)
        .num("latency_p50_s", stats.p50_latency_s)
        .num("latency_p95_s", stats.p95_latency_s)
        .num("latency_p99_s", stats.p99_latency_s)
        .num("sim_events", stats.sim_events)
        .num("late_events", stats.late_events);
    report.add_events(stats.sim_events, stats.late_events);
  }
  t.print();
  std::cout << "late events: " << report.late_events() << "\n";
  exp::maybe_export_csv(t, "fig06_network_size");

  // Peak-RSS regression gate. Baselines are process-peak-RSS / N measured
  // at the two large sweep points in the bench-smoke profile (one trial
  // thread; 8 shards at N=1M), once nodes held only protocol state (gossip
  // scratch per thread, bootstrap list released); the pre-store layout sat
  // at ~23,000 bytes/node at N=100k. The gate only fires when the sweep ends
  // at a baselined size AND that point ran alone (ARES_MIN_N pinned to it,
  // the bench-smoke profile) — in a full sweep the small points' grids
  // inflate the process high-water mark and bytes/node would be noise.
  struct RssBaseline {
    std::size_t n;
    double bytes_per_node;
  };
  constexpr RssBaseline kRssBaselines[] = {{100000, 2570.0}, {1000000, 2835.0}};
  const std::size_t top_n = sizes.empty() ? 0 : sizes.back();
  const std::uint64_t peak_rss = exp::peak_rss_bytes();
  const double bytes_per_node =
      top_n > 0 ? static_cast<double>(peak_rss) / static_cast<double>(top_n) : 0.0;
  bool rss_regressed = false;
  double rss_limit = 0.0;
  if (sizes.size() == 1) {
    for (const RssBaseline& b : kRssBaselines) {
      if (b.n != top_n) continue;
      rss_limit = b.bytes_per_node * 1.15;
      rss_regressed = bytes_per_node > rss_limit;
      // stderr, not stdout: host telemetry varies run to run, and stdout is
      // diffed byte-for-byte across shard counts in CI bench-smoke.
      std::cerr << "peak RSS: " << peak_rss << " bytes (" << exp::fmt(bytes_per_node)
                << " bytes/node; gate " << exp::fmt(rss_limit) << ")\n";
    }
  }

  const double wall = report.elapsed_s();
  report.summary()
      .num("max_n", static_cast<std::uint64_t>(sizes.empty() ? 0 : sizes.back()))
      .num("sweep_points", static_cast<std::uint64_t>(sizes.size()))
      .num("wall_clock_s", wall)
      .num("events_per_sec",
           wall > 0 ? static_cast<double>(report.sim_events()) / wall : 0.0)
      .num("peak_rss_bytes_per_node", bytes_per_node)
      .boolean("rss_gate_active", rss_limit > 0.0)
      .boolean("rss_gate_failed", rss_regressed);
  report.write();
  // Late events mean the simulated gossip/query timers could not keep up —
  // the overhead series would be measuring an overloaded scheduler.
  if (report.late_events() != 0) {
    std::cout << "FAIL: " << report.late_events() << " late events\n";
    return 1;
  }
  if (rss_regressed) {
    std::cerr << "FAIL: peak RSS " << exp::fmt(bytes_per_node)
              << " bytes/node exceeds the baseline gate (" << exp::fmt(rss_limit)
              << " bytes/node)\n";
    return 1;
  }
  return 0;
}
