/// Figure 11: delivery under replacement churn (PeerSim setup).
///
/// Paper: with 0.1% of nodes replaced every 10 s, delivery is barely
/// disturbed (~1.0); with 0.2% (Gnutella-level churn) delivery dips but
/// stays high (~0.8). One sigma=inf query is issued every 30 s over 3000 s;
/// delivery = matching nodes reached / matching nodes alive at issue.
///
/// Protocol variants measured:
///   - "paper": Fig. 4(b)'s pending-entry timeout T(q) with re-forwarding,
///     ONE link per neighboring subcell (a timed-out subcell whose only
///     link died is simply lost — the paper drops it rather than waiting
///     for overlay repair);
///   - "backup links" (extension): 3 candidates per subcell, timed-out
///     branches retried through an alternate;
///   - "no timeout": T(q) disabled — shows why the pending-table timeout is
///     load-bearing (a dead child stalls its parent's entire remaining DFS).
///
/// The four panels are independent trials run on ARES_THREADS workers; all
/// output is buffered and printed in panel order.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct PanelConfig {
  const char* label;
  double churn_fraction;
  double timeout_s;  // 0 = no timeout
  std::size_t slot_capacity;
  bool print_series;
};

struct PanelResult {
  std::vector<exp::DeliveryPoint> series;
  std::uint64_t killed = 0;
  SimTotals totals;
};

PanelResult run_panel(const PanelConfig& c, const Setup& s) {
  Grid::Config cfg{.space = AttributeSpace::uniform(s.dims, s.levels, 0, 80)};
  cfg.nodes = s.n;
  cfg.oracle = false;
  cfg.convergence = from_seconds(option_double("CONVERGENCE_S", 300));
  cfg.latency = "lan";
  cfg.seed = s.seed;
  cfg.shards = s.shards;
  cfg.protocol.gossip_enabled = true;
  cfg.protocol.query_timeout = from_seconds(c.timeout_s);
  cfg.protocol.retry_alternates = c.slot_capacity > 1;
  cfg.protocol.routing.slot_capacity = c.slot_capacity;
  cfg.bootstrap_contacts = 5;
  auto grid = std::make_unique<Grid>(std::move(cfg),
                                     uniform_points(cfg.space, 0, 80));

  ChurnDriver churn(grid->net(), grid->churn_factory());
  churn.start_replacement_churn(c.churn_fraction, 10 * kSecond);

  const SimTime duration = from_seconds(option_double("DURATION_S", 3000));
  PanelResult out;
  out.series = exp::delivery_timeline(
      *grid,
      [&](Rng& rng) { return best_case_query(grid->space(), s.selectivity, rng); },
      duration, /*interval=*/30 * kSecond, /*settle=*/from_seconds(120),
      kNoSigma);
  churn.stop();
  out.killed = churn.total_killed();
  out.totals = totals_of(*grid);
  return out;
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 11", "delivery vs. churn",
      "(a) 0.1%/10s: delivery ~1.0 throughout; (b) 0.2%/10s (Gnutella "
      "rate): delivery decreases but remains high (~0.8); the paper notes "
      "recovery mechanisms 'would have allowed delivery close to 1'");
  Setup s = read_setup(2000);
  s.sigma = 0;  // the experiment uses no threshold
  print_setup(s);

  const double tq_s = option_double("TIMEOUT_S", 5.0);
  const std::vector<PanelConfig> panels{
      {"paper protocol (T(q), single link/subcell)", kChurnLight.fraction, tq_s,
       1, true},
      {"paper protocol (T(q), single link/subcell)", kChurnGnutella.fraction,
       tq_s, 1, true},
      {"backup links x3 (extension)", kChurnGnutella.fraction, tq_s, 3, false},
      {"no timeout (why T(q) matters)", kChurnGnutella.fraction, 0, 1, false},
  };

  const std::size_t threads = exp::resolve_threads(panels.size());
  exp::BenchReport report("fig11_churn");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      panels, [&s](const PanelConfig& c, std::size_t) { return run_panel(c, s); },
      threads);

  for (std::size_t i = 0; i < panels.size(); ++i) {
    const PanelConfig& c = panels[i];
    const PanelResult& r = results[i];
    std::cout << "-- churn = " << exp::fmt(100 * c.churn_fraction, 1)
              << "% per 10s, " << c.label << " --\n";
    if (c.print_series) {
      exp::Table t({"t (s)", "delivery", "matching alive at issue"});
      for (std::size_t j = 0; j < r.series.size();
           j += std::max<std::size_t>(1, r.series.size() / 20)) {
        const auto& p = r.series[j];
        t.row({exp::fmt(p.t_seconds, 0), exp::fmt(p.delivery, 3),
               std::to_string(p.ground_truth)});
      }
      t.print();
    }
    Summary sum;
    for (const auto& p : r.series) sum.add(p.delivery);
    std::cout << "mean delivery: " << exp::fmt(sum.mean(), 3)
              << "   min: " << exp::fmt(sum.empty() ? 0 : sum.min(), 3)
              << "   churned in/out: " << r.killed << "\n\n";
    report.point()
        .str("panel", c.label)
        .num("churn_fraction", c.churn_fraction)
        .num("mean_delivery", sum.mean())
        .num("min_delivery", sum.empty() ? 0.0 : sum.min())
        .num("churned", r.killed)
        .num("sim_events", r.totals.events)
        .num("late_events", r.totals.late);
    report.add_events(r.totals.events, r.totals.late);
  }
  report.write();
  return 0;
}
