/// Figure 9: query-load distribution across nodes.
///
/// 9(a) paper: with queries issued from every node, no node's load stands
/// out — under both uniform and hotspot (normal) node placements, the
/// per-node message counts concentrate in the low percent-of-max buckets
/// with no heavy tail (gossip-randomized neighbor choice spreads links).
///
/// 9(b) paper: versus a DHT/SWORD baseline (d=16, skewed XtremLab-like
/// attributes, 50 queries, f=0.125): delegation produces a heavy tail —
/// a few registry nodes process a large share of all messages — while our
/// protocol sends relatively few messages to all nodes.
///
/// The four measurements (two placements, ours-vs-DHT) are independent jobs
/// run on ARES_THREADS workers; all output is emitted in order afterwards.

#include <numeric>

#include "bench_common.h"
#include "dht/sword.h"

namespace {

using namespace ares;
using namespace ares::bench;

/// One parallel job's result: panel (a) jobs fill `hist_row`, panel (b)
/// jobs fill `received`. `load` is the job's measured message total.
struct JobOut {
  std::vector<std::string> hist_row;
  std::vector<std::uint64_t> received;
  std::uint64_t load = 0;
  SimTotals totals;
};

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

JobOut run_ours_panel(const char* dist, std::size_t n, std::uint64_t seed,
                      std::uint32_t shards) {
  Setup s;
  s.n = n;
  s.seed = seed;
  s.shards = shards;
  s.queries = option_u64("QUERIES", 20);
  auto grid = make_oracle_grid(s, "wan", dist, /*track_visited=*/false);
  Rng rng(seed);
  auto queries = default_queries(*grid, s, rng);
  const std::size_t origins = option_u64("ORIGINS", 25);
  auto load = exp::measure_load(*grid, queries, 50, origins);
  auto h = exp::percent_of_max_histogram(load.sent);
  JobOut out;
  out.load = sum(load.sent);
  out.hist_row.push_back(dist);
  for (std::size_t b = 0; b < h.bucket_count(); ++b)
    out.hist_row.push_back(exp::fmt(100.0 * h.fraction(b), 1));
  out.totals = totals_of(*grid);
  return out;
}

/// Realistic resource-selection queries: "give me nodes with at least X of
/// attribute j", j cycling over the meaningful attributes (CPU/mem/bw), X
/// set at the empirical (1-f) quantile so each query matches ~f of the
/// population. Repeated queries hit the SAME popular value buckets — the
/// access pattern that concentrates load on DHT registry nodes.
RangeQuery resource_query(const std::vector<Point>& profiles, double f, Rng& rng) {
  const int d = static_cast<int>(profiles[0].size());
  RangeQuery q = RangeQuery::any(d);
  int dim = static_cast<int>(rng.below(3));  // CPU / memory / bandwidth
  std::vector<AttrValue> vals;
  vals.reserve(profiles.size());
  for (const auto& p : profiles) vals.push_back(p[static_cast<std::size_t>(dim)]);
  std::sort(vals.begin(), vals.end());
  auto idx = static_cast<std::size_t>((1.0 - f) * static_cast<double>(vals.size()));
  idx = std::min(idx, vals.size() - 1);
  q.with(dim, vals[idx], std::nullopt);  // attr_dim >= (1-f) quantile
  return q;
}

JobOut run_ours_dht_panel(const std::vector<Point>& profiles,
                          const AttributeSpace& space16, std::size_t qcount,
                          std::uint64_t seed, std::uint32_t shards) {
  Grid::Config cfg{.space = space16};
  cfg.nodes = 0;
  cfg.shards = shards;
  cfg.oracle = false;  // populated manually below, then bootstrapped
  cfg.latency = "lan";
  cfg.seed = seed;
  cfg.protocol.gossip_enabled = false;
  cfg.track_visited = false;
  Grid grid(std::move(cfg), uniform_points(space16, 0, 80));
  for (const auto& p : profiles) grid.add_node(p);
  grid.rebootstrap();
  Rng qrng(seed + 9);
  std::vector<RangeQuery> queries;
  for (std::size_t i = 0; i < qcount; ++i)
    queries.push_back(resource_query(profiles, 0.125, qrng));
  JobOut out;
  out.received = exp::measure_load(grid, queries, 50, 1).received;
  out.load = sum(out.received);
  out.totals = totals_of(grid);
  return out;
}

JobOut run_dht_panel(const std::vector<Point>& profiles, double f,
                     std::uint32_t sigma, std::size_t query_count,
                     std::uint64_t seed, std::uint32_t shards) {
  auto latency = make_lan_latency();
  Simulator sim(seed, shards, latency->min_latency());
  Network net(sim, std::move(latency));
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < profiles.size(); ++i)
    ids.push_back(net.add_node(
        std::make_unique<ChordNode>(ring_hash_node(static_cast<NodeId>(i))),
        static_cast<std::uint32_t>(i % shards)));
  build_ring(net);

  // Publish every node's profile (one record per dimension), then drain and
  // exclude publish traffic from the measured load.
  for (std::size_t i = 0; i < profiles.size(); ++i)
    sword_publish(*net.find_as<ChordNode>(ids[i]), ids[i], profiles[i]);
  sim.run();
  net.set_load_filter([](const Message& m) {
    return std::string_view(m.type_name()).starts_with("dht.");
  });
  net.reset_node_load();

  Rng rng(seed + 1);
  std::vector<std::shared_ptr<SwordQuery>> live;
  for (std::size_t q = 0; q < query_count; ++q) {
    RangeQuery query = resource_query(profiles, f, rng);
    int dim = sword_pick_dimension(query);
    if (dim < 0) continue;
    AttrValue lo = query.range(dim).lo.value_or(0);
    AttrValue hi = query.range(dim).hi.value_or(80);
    NodeId origin = ids[rng.index(ids.size())];
    live.push_back(SwordQuery::start(*net.find_as<ChordNode>(origin), query, dim,
                                     lo, hi, sigma, nullptr));
    sim.run();  // iterated search: sequential gets, drain per query
  }
  JobOut out;
  out.received = net.stats().load_received_by_node();
  out.load = sum(out.received);
  out.totals = totals_of(sim);
  return out;
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Figure 9", "node load distribution",
      "(a) uniform vs normal placement: no heavy tail, loads concentrate in "
      "low buckets; (b) ours vs DHT(SWORD): the DHT shows a heavy tail (few "
      "nodes process most messages), ours spreads few messages over all "
      "nodes");

  Setup s = read_setup(5000);
  print_setup(s);

  const std::size_t das_n = option_u64("DAS_N", 1000);
  const std::size_t qcount = option_u64("DHT_QUERIES", 50);

  // Shared node profiles for both panel-(b) systems (read-only once built).
  auto space16 = AttributeSpace::uniform(16, 3, 0, 80);
  auto gen = xtremlab_points(space16);
  Rng prof_rng(s.seed + 7);
  std::vector<Point> profiles;
  profiles.reserve(das_n);
  for (std::size_t i = 0; i < das_n; ++i) profiles.push_back(gen(prof_rng));

  std::vector<std::function<JobOut()>> jobs{
      [&] { return run_ours_panel("uniform", s.n, s.seed, s.shards); },
      [&] { return run_ours_panel("normal", s.n, s.seed + 1, s.shards); },
      [&] { return run_ours_dht_panel(profiles, space16, qcount, s.seed, s.shards); },
      [&] { return run_dht_panel(profiles, 0.125, 50, qcount, s.seed + 11, s.shards); },
  };
  const std::size_t threads = exp::resolve_threads(jobs.size());
  exp::BenchReport report("fig09_load_balance");
  report.set_threads(threads);
  report.set_shards(s.shards);
  auto results = exp::run_jobs<JobOut>(jobs, threads);
  for (const auto& r : results) report.add_events(r.totals.events, r.totals.late);

  // ---- Panel (a): ours, uniform vs normal hotspot -----------------------
  std::cout << "-- (a) per-node messages dispatched, % of nodes per "
               "percent-of-max bucket --\n";
  {
    std::vector<std::string> headers{"distribution"};
    auto proto = exp::percent_of_max_histogram({1});
    for (std::size_t b = 0; b < proto.bucket_count(); ++b)
      headers.push_back(proto.label(b) + "%");
    exp::Table t(headers);
    t.row(results[0].hist_row);
    t.row(results[1].hist_row);
    t.print();
  }

  // ---- Panel (b): ours vs DHT-based (SWORD over Chord) ------------------
  std::cout << "\n-- (b) ours vs DHT-based, d=16, skewed (XtremLab-like) "
               "attributes, 50 queries f=0.125, sigma=50 --\n";

  auto summarize = [&report](const char* name,
                             const std::vector<std::uint64_t>& counts,
                             exp::Table& t) {
    Summary sum;
    std::uint64_t max = 0;
    std::size_t zero = 0;
    for (auto c : counts) {
      sum.add(static_cast<double>(c));
      max = std::max(max, c);
      if (c == 0) ++zero;
    }
    const double idle = 100.0 * static_cast<double>(zero) /
                        static_cast<double>(std::max<std::size_t>(1, counts.size()));
    t.row({name, exp::fmt(sum.mean()), std::to_string(max),
           exp::fmt(max / std::max(1.0, sum.mean()), 1), exp::fmt(idle, 1)});
    report.point()
        .str("system", name)
        .num("mean_msgs_per_node", sum.mean())
        .num("max_msgs_per_node", max)
        .num("pct_idle_nodes", idle);
  };
  exp::Table t({"system", "mean msgs/node", "max msgs/node", "max/mean",
                "% idle nodes"});
  // Pad both vectors to the full population for fair "% idle".
  auto ours_recv = results[2].received;
  ours_recv.resize(das_n, 0);
  auto dht_recv = results[3].received;
  dht_recv.resize(das_n, 0);
  summarize("ours", ours_recv, t);
  summarize("DHT (SWORD/Chord)", dht_recv, t);
  t.print();

  exp::print_histogram("ours: % of nodes per percent-of-max bucket",
                       exp::percent_of_max_histogram(ours_recv));
  exp::print_histogram("DHT:  % of nodes per percent-of-max bucket",
                       exp::percent_of_max_histogram(dht_recv));
  report.write();

  // A panel with no measured query traffic means the load counters were
  // lost, not that the load is balanced.
  const char* names[] = {"(a) uniform", "(a) normal", "(b) ours", "(b) DHT"};
  int rc = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].load > 0) continue;
    std::cerr << "FAIL: panel " << names[i] << " measured zero query load\n";
    rc = 1;
  }
  return rc;
}
