/// Ablation (beyond the paper's figures): what the §4.3 failure-recovery
/// machinery buys. After a silent partial failure (routing tables stale),
/// compare:
///   - drop:               no timeouts (the paper's §6.6 measurement mode)
///   - timeout:            T(q) fires, branch abandoned, DFS continues
///   - timeout+alternates: failed subcell retried through a backup link
/// Metrics: delivery, query completion, duplicate visits.
///
/// The six (mode, kill-fraction) cells are independent trials run on
/// ARES_THREADS workers.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct TrialConfig {
  const char* name;
  SimTime timeout;
  bool retry;
  double kill_fraction;
};

struct TrialResult {
  double mean_delivery = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t dups = 0;
  SimTotals totals;
};

TrialResult run_mode(const TrialConfig& mode, const Setup& base) {
  Grid::Config cfg{.space = AttributeSpace::uniform(base.dims, base.levels, 0, 80)};
  cfg.nodes = base.n;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = base.seed;
  cfg.shards = base.shards;
  cfg.protocol.gossip_enabled = false;
  cfg.protocol.query_timeout = mode.timeout;
  cfg.protocol.retry_alternates = mode.retry;
  cfg.protocol.routing.slot_capacity = 3;
  cfg.oracle_options.per_slot = 3;
  Grid grid(std::move(cfg), uniform_points(cfg.space, 0, 80));

  ChurnDriver churn(grid.net());
  // Keep some origins alive for querying.
  auto ids = grid.node_ids();
  for (std::size_t i = 0; i < 20; ++i) churn.protect(ids[i]);
  churn.fail_fraction(mode.kill_fraction);

  Rng rng(base.seed + 3);
  Summary delivery;
  TrialResult r;
  const std::size_t reps = base.queries;
  for (std::size_t i = 0; i < reps; ++i) {
    auto q = best_case_query(grid.space(), base.selectivity, rng);
    auto truth = grid.ground_truth(q).size();
    if (truth == 0) continue;
    NodeId origin = ids[i % 20];
    auto out = grid.run_query(origin, q, kNoSigma, 900 * kSecond);
    const auto* pq = grid.stats().find(out.id);
    if (pq == nullptr) continue;
    delivery.add(static_cast<double>(pq->hits) / static_cast<double>(truth));
    r.dups += pq->duplicates;
    if (out.completed) ++r.completed;
  }
  r.mean_delivery = delivery.empty() ? 0 : delivery.mean();
  r.totals = totals_of(grid);
  return r;
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Ablation A", "failure recovery: drop vs timeout vs timeout+backups",
      "expectation: drop mode loses whole subtrees behind dead links and "
      "stalls (queries never complete); timeouts restore completion; backup "
      "links restore most of the lost delivery");

  Setup s = read_setup(1500, /*default_queries=*/20);
  print_setup(s);

  std::vector<TrialConfig> configs;
  for (double kill : {0.1, 0.3}) {
    configs.push_back({"drop (no timeout)", 0, false, kill});
    configs.push_back({"timeout only", 2 * kSecond, false, kill});
    configs.push_back({"timeout + alternates", 2 * kSecond, true, kill});
  }

  const std::size_t threads = exp::resolve_threads(configs.size());
  exp::BenchReport report("ablation_recovery");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      configs,
      [&s](const TrialConfig& c, std::size_t) { return run_mode(c, s); },
      threads);

  exp::Table t({"mode", "killed", "delivery", "completed", "duplicate visits"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const TrialConfig& c = configs[i];
    const TrialResult& r = results[i];
    const double completed_pct =
        100.0 * static_cast<double>(r.completed) /
        static_cast<double>(std::max<std::size_t>(1, s.queries));
    t.row({c.name, exp::fmt(100 * c.kill_fraction, 0) + "%",
           exp::fmt(r.mean_delivery, 3), exp::fmt(completed_pct, 1) + "%",
           std::to_string(r.dups)});
    report.point()
        .str("mode", c.name)
        .num("kill_fraction", c.kill_fraction)
        .num("delivery", r.mean_delivery)
        .num("completed_pct", completed_pct)
        .num("duplicates", r.dups)
        .num("sim_events", r.totals.events)
        .num("late_events", r.totals.late);
    report.add_events(r.totals.events, r.totals.late);
  }
  t.print();
  report.write();
  return 0;
}
