/// Ablation (design choices discussed in the paper's footnotes):
///   1. Boundary snapping (§6.2 fn 2): forcing query ranges onto cell
///      boundaries vs letting them straddle subcells.
///   2. sigma sweep: how the result threshold caps exploration cost.
///   3. Backup-link count: routing-table slot capacity vs recovery ability
///      (costless in a healthy network).
///   4. Query-aware forwarding (extension) on adversarially shaped queries.
///
/// Each section's measurements are independent jobs run on ARES_THREADS
/// workers; tables print in section order afterwards.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

/// A mid-cell-offset variant of a best-case query: same width, shifted so
/// it straddles cell boundaries (what snapping would prevent).
RangeQuery unsnapped_variant(const AttributeSpace& space, const RangeQuery& snapped) {
  RangeQuery q = snapped;
  for (int d = 0; d < space.dimensions(); ++d) {
    const auto& r = snapped.range(d);
    if (r.unconstrained()) continue;
    // Shift both bounds by half a cell width (cells are width 10 here).
    AttrValue lo = r.lo.value_or(0) + 5;
    std::optional<AttrValue> hi =
        r.hi.has_value() ? std::optional<AttrValue>(*r.hi + 5) : std::nullopt;
    q.with(d, lo, hi);
  }
  return q;
}

/// One job's output: the rows of the table section it computes, plus the
/// unformatted numbers behind them for the JSON report.
struct PointRow {
  std::string label;
  double overhead = 0.0;
  double metric = 0.0;  // section-specific second value (see metric_of)
};
struct JobOut {
  std::vector<std::vector<std::string>> rows;
  std::vector<PointRow> points;
  SimTotals totals;
};

}  // namespace

int main() {
  exp::print_experiment_header(
      "Ablation B", "query shape, sigma, and backup links",
      "snapped (cell-aligned) queries cost less overhead than straddling "
      "ones of equal volume; overhead grows as sigma -> inf; extra backup "
      "links are free when nothing fails");

  Setup s = read_setup(5000, 30);
  print_setup(s);

  std::vector<std::function<JobOut()>> jobs;

  // Job 0 — section (1): boundary snapping (one grid, two query sets).
  jobs.push_back([&s] {
    auto grid = make_oracle_grid(s, "lan");
    Rng rng(s.seed + 1);
    std::vector<RangeQuery> snapped, unsnapped;
    for (std::size_t i = 0; i < s.queries; ++i) {
      auto q = best_case_query(grid->space(), s.selectivity, rng);
      snapped.push_back(q);
      unsnapped.push_back(unsnapped_variant(grid->space(), q));
    }
    auto a = exp::run_queries(*grid, snapped, kNoSigma, 1);
    auto b = exp::run_queries(*grid, unsnapped, kNoSigma, 1);
    JobOut out;
    out.rows.push_back({"snapped to boundaries", exp::fmt(a.mean_overhead),
                        exp::fmt(a.mean_delivery)});
    out.rows.push_back({"straddling boundaries", exp::fmt(b.mean_overhead),
                        exp::fmt(b.mean_delivery)});
    out.points.push_back({"snapped", a.mean_overhead, a.mean_delivery});
    out.points.push_back({"straddling", b.mean_overhead, b.mean_delivery});
    out.totals = totals_of(*grid);
    return out;
  });

  // Job 1 — section (2): sigma sweep on one grid.
  jobs.push_back([&s] {
    auto grid = make_oracle_grid(s, "lan");
    std::vector<RangeQuery> queries(s.queries,
                                    worst_case_query(grid->space(), 0.125));
    JobOut out;
    for (std::uint32_t sigma : {5u, 20u, 50u, 200u, kNoSigma}) {
      auto r = exp::run_queries(*grid, queries, sigma, 1);
      const std::string label = sigma == kNoSigma ? "inf" : std::to_string(sigma);
      out.rows.push_back({label, exp::fmt(r.mean_overhead),
                          exp::fmt(r.mean_matches, 1)});
      out.points.push_back({label, r.mean_overhead, r.mean_matches});
    }
    out.totals = totals_of(*grid);
    return out;
  });

  // Jobs 2-4 — section (3): backup-link slot capacities, one grid each.
  for (std::size_t cap : {1u, 2u, 4u}) {
    jobs.push_back([&s, cap] {
      Setup cur = s;
      cur.seed = s.seed + cap;
      Grid::Config cfg{.space = AttributeSpace::uniform(cur.dims, cur.levels, 0, 80)};
      cfg.nodes = cur.n;
      cfg.oracle = true;
      cfg.latency = "lan";
      cfg.seed = cur.seed;
      cfg.shards = cur.shards;
      cfg.protocol.gossip_enabled = false;
      cfg.protocol.routing.slot_capacity = cap;
      cfg.oracle_options.per_slot = cap;
      Grid g(std::move(cfg), uniform_points(cfg.space, 0, 80));
      Rng r2(cur.seed);
      auto queries = default_queries(g, cur, r2);
      auto res = exp::run_queries(g, queries, sigma_of(cur), 1);
      Summary links;
      for (NodeId id : g.node_ids())
        links.add(static_cast<double>(g.node(id).routing().link_count()));
      JobOut out;
      out.rows.push_back({std::to_string(cap), exp::fmt(res.mean_overhead),
                          exp::fmt(links.mean(), 1)});
      out.points.push_back({std::to_string(cap), res.mean_overhead, links.mean()});
      out.totals = totals_of(g);
      return out;
    });
  }

  // Jobs 5-6 — section (4): query-aware forwarding on/off, one grid each.
  // Constraining the last-scanned dimensions maximizes representative
  // misses (see EXPERIMENTS.md, Fig. 8); query-aware candidate choice
  // should claw part of that overhead back.
  for (bool aware : {false, true}) {
    jobs.push_back([&s, aware] {
      const int d = 12;
      Grid::Config cfg{.space = AttributeSpace::uniform(d, 3, 0, 80)};
      cfg.nodes = 4000;
      cfg.oracle = true;
      cfg.latency = "lan";
      cfg.seed = s.seed;
      cfg.shards = s.shards;
      cfg.protocol.gossip_enabled = false;
      cfg.protocol.query_aware_forwarding = aware;
      auto grid = std::make_unique<Grid>(std::move(cfg),
                                         uniform_points(cfg.space, 0, 80));
      // Region: full range on dims 0..d-4, aligned half-range on the last 3.
      auto bad_order_query = [&](const AttributeSpace& space, Rng& rng) {
        IntervalVec ivs(static_cast<std::size_t>(d), {0, 7});
        for (int k = d - 3; k < d; ++k) {
          CellIndex half = static_cast<CellIndex>(rng.below(2));
          ivs[static_cast<std::size_t>(k)] = {static_cast<CellIndex>(half * 4),
                                              static_cast<CellIndex>(half * 4 + 3)};
        }
        return query_from_region(space, Region(ivs));
      };
      Rng rng(s.seed + 5);
      std::vector<RangeQuery> queries;
      for (int i = 0; i < 20; ++i)
        queries.push_back(bad_order_query(grid->space(), rng));
      auto r = exp::run_queries(*grid, queries, 50, 1);
      JobOut out;
      out.rows.push_back({aware ? "query-aware (extension)" : "paper (primary link)",
                          exp::fmt(r.mean_overhead), exp::fmt(r.mean_delivery)});
      out.points.push_back({aware ? "query-aware" : "primary-link",
                            r.mean_overhead, r.mean_delivery});
      out.totals = totals_of(*grid);
      return out;
    });
  }

  const std::size_t threads = exp::resolve_threads(jobs.size());
  exp::BenchReport report("ablation_query_shape");
  report.set_threads(threads);
  report.set_shards(s.shards);
  auto results = exp::run_jobs<JobOut>(jobs, threads);
  for (const auto& r : results) report.add_events(r.totals.events, r.totals.late);

  static const char* kSection[] = {"snapping",     "sigma",        "backup_links",
                                   "backup_links", "backup_links", "query_aware",
                                   "query_aware"};
  static const char* kMetric[] = {"delivery",       "mean_matches", "links_per_node",
                                  "links_per_node", "links_per_node", "delivery",
                                  "delivery"};
  for (std::size_t j = 0; j < results.size(); ++j)
    for (const auto& p : results[j].points)
      report.point()
          .str("section", kSection[j])
          .str("label", p.label)
          .num("overhead", p.overhead)
          .num(kMetric[j], p.metric);

  std::cout << "-- (1) boundary snapping (f=" << exp::fmt(s.selectivity, 3)
            << ") --\n";
  {
    exp::Table t({"variant", "overhead", "delivery"});
    for (const auto& row : results[0].rows) t.row(row);
    t.print();
  }

  std::cout << "\n-- (2) sigma sweep (worst-case queries, f=0.125) --\n";
  {
    exp::Table t({"sigma", "overhead", "mean matches returned"});
    for (const auto& row : results[1].rows) t.row(row);
    t.print();
  }

  std::cout << "\n-- (3) backup links: overhead in a healthy network --\n";
  {
    exp::Table t({"slot capacity", "overhead", "mean links/node"});
    for (std::size_t j = 2; j <= 4; ++j)
      for (const auto& row : results[j].rows) t.row(row);
    t.print();
  }

  std::cout << "\n-- (4) query-aware forwarding (extension; d=12, queries "
               "constraining the LAST dimensions) --\n";
  {
    exp::Table t({"forwarding", "overhead (sigma=50)", "delivery"});
    for (std::size_t j = 5; j <= 6; ++j)
      for (const auto& row : results[j].rows) t.row(row);
    t.print();
  }
  report.write();
  return 0;
}
