/// Figure 12: delivery before/after a massive simultaneous failure.
///
/// Paper: after 50% of all nodes crash at once, delivery oscillates, then
/// the gossip layers rebuild the overlay — full recovery in ~15 minutes
/// (tunable via the gossip period). After 90%, the overlay partitions and
/// delivery cannot be fully restored. Shown for both the PeerSim setup and
/// the DAS (N=1,000) setup.
///
/// The four panels are independent trials run on ARES_THREADS workers.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct PanelConfig {
  const char* title;
  std::size_t n;
  double kill_fraction;
  std::uint64_t seed;
};

struct PanelResult {
  std::vector<exp::DeliveryPoint> before, after;
  SimTotals totals;
};

PanelResult run_panel(const PanelConfig& c, double selectivity, std::uint32_t shards) {
  Setup s;
  s.n = c.n;
  s.seed = c.seed;
  s.selectivity = selectivity;
  s.shards = shards;
  // Paper-faithful protocol: T(q) timeout, a single link per subcell (no
  // backup alternates) — recovery comes from gossip repair alone.
  auto grid = make_gossip_grid(s, from_seconds(option_double("CONVERGENCE_S", 300)),
                               "lan", /*track_visited=*/true,
                               /*default_timeout_s=*/5.0, /*slot_capacity=*/1);

  auto probe = [&](SimTime duration, SimTime interval) {
    return exp::delivery_timeline(
        *grid,
        [&](Rng& rng) { return best_case_query(grid->space(), s.selectivity, rng); },
        duration, interval, /*settle=*/from_seconds(90), kNoSigma);
  };

  PanelResult out;
  out.before = probe(from_seconds(120), from_seconds(40));
  ChurnDriver churn(grid->net());
  churn.fail_fraction(c.kill_fraction);
  out.after = probe(from_seconds(option_double("DURATION_S", 2400)),
                    from_seconds(60));
  out.totals = totals_of(*grid);
  return out;
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 12", "delivery vs. massive failure",
      "50% failure: delivery oscillates then fully recovers within ~15 min; "
      "90% failure: overlay partitions, recovery incomplete; similar on "
      "PeerSim and DAS setups");
  Setup s = read_setup(2000);
  print_setup(s);
  const std::size_t das_n = option_u64("DAS_N", 1000);
  const double selectivity = option_double("F", 0.125);

  const std::vector<PanelConfig> panels{
      {"(a) PeerSim", s.n, 0.50, s.seed},
      {"(b) PeerSim", s.n, 0.90, s.seed + 1},
      {"(c) DAS", das_n, 0.50, s.seed + 2},
      {"(d) DAS", das_n, 0.90, s.seed + 3},
  };

  const std::size_t threads = exp::resolve_threads(panels.size());
  exp::BenchReport report("fig12_massive_failure");
  report.set_threads(threads);
  report.set_shards(s.shards);

  auto results = exp::run_trials(
      panels,
      [selectivity, shards = s.shards](const PanelConfig& c, std::size_t) {
        return run_panel(c, selectivity, shards);
      },
      threads);

  for (std::size_t i = 0; i < panels.size(); ++i) {
    const PanelConfig& c = panels[i];
    const PanelResult& r = results[i];
    std::cout << "-- " << c.title << ": failure of "
              << exp::fmt(100 * c.kill_fraction, 0) << "% of " << c.n
              << " nodes --\n";
    exp::Table t({"phase", "t (s)", "delivery", "matching alive"});
    for (const auto& p : r.before)
      t.row({"before", exp::fmt(p.t_seconds, 0), exp::fmt(p.delivery, 3),
             std::to_string(p.ground_truth)});
    for (std::size_t j = 0; j < r.after.size();
         j += std::max<std::size_t>(1, r.after.size() / 16)) {
      const auto& p = r.after[j];
      t.row({"after", exp::fmt(p.t_seconds, 0), exp::fmt(p.delivery, 3),
             std::to_string(p.ground_truth)});
    }
    t.print();

    Summary early, late;
    for (const auto& p : r.after)
      (p.t_seconds < 600 ? early : late).add(p.delivery);
    std::cout << "mean delivery first 10 min after failure: "
              << exp::fmt(early.empty() ? 0 : early.mean(), 3)
              << "   after recovery window: "
              << exp::fmt(late.empty() ? 0 : late.mean(), 3) << "\n\n";
    report.point()
        .str("panel", c.title)
        .num("n", static_cast<std::uint64_t>(c.n))
        .num("kill_fraction", c.kill_fraction)
        .num("mean_delivery_first_10min", early.empty() ? 0.0 : early.mean())
        .num("mean_delivery_after_recovery", late.empty() ? 0.0 : late.mean())
        .num("sim_events", r.totals.events)
        .num("late_events", r.totals.late);
    report.add_events(r.totals.events, r.totals.late);
  }
  report.write();
  return 0;
}
