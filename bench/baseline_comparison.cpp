/// Baseline comparison (paper §2, quantified): three ways to answer "give
/// me machines in the top f of attribute 0" on the same 2,000-node
/// population.
///
///   - cell overlay (this paper): route the range query, matching nodes
///     select themselves; cost ~ matches + small overhead.
///   - flooding (Zorilla/Gnutella-like): flood an unstructured overlay with
///     a TTL; cost ~ N x degree regardless of selectivity.
///   - ordered slicing [26]: every node gossips continuously to learn its
///     rank; answering requires the WHOLE overlay to run the protocol, and
///     supports only "best fraction" queries on one attribute.

#include "baselines/flooding.h"
#include "baselines/slicing.h"
#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct Outcome {
  std::uint64_t messages = 0;
  double delivery = 0.0;
  std::string note;
  SimTotals totals;
};

Outcome run_ours(const std::vector<Point>& profiles, const AttributeSpace& space,
                 AttrValue threshold, std::uint64_t seed, std::uint32_t shards) {
  Grid::Config cfg{.space = space};
  cfg.nodes = 0;
  cfg.oracle = false;
  cfg.latency = "lan";
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.protocol.gossip_enabled = false;
  Grid grid(std::move(cfg), uniform_points(space, 0, 80));
  for (const auto& p : profiles) grid.add_node(p);
  grid.rebootstrap();

  auto q = RangeQuery::any(space.dimensions()).with(0, threshold, std::nullopt);
  auto truth = grid.ground_truth(q).size();
  auto sent_before = grid.net().stats().sent();
  auto out = grid.run_query(grid.random_node(), q);
  Outcome o;
  o.messages = grid.net().stats().sent() - sent_before;
  o.delivery = truth == 0 ? 1.0
                          : static_cast<double>(out.matches.size()) /
                                static_cast<double>(truth);
  o.note = "exact range query, any attribute set";
  o.totals = totals_of(grid);
  return o;
}

Outcome run_flooding(const std::vector<Point>& profiles, int dims,
                     AttrValue threshold, std::uint64_t seed) {
  Simulator sim(seed);
  Network net(sim, make_lan_latency());
  std::vector<NodeId> ids;
  for (const auto& p : profiles)
    ids.push_back(net.add_node(std::make_unique<FloodingNode>(p)));
  Rng rng(seed);
  build_random_overlay(net, /*degree=*/6, rng);

  auto q = RangeQuery::any(dims).with(0, threshold, std::nullopt);
  std::size_t truth = 0;
  for (const auto& p : profiles)
    if (q.matches(p)) ++truth;

  NodeId origin = ids[rng.index(ids.size())];
  auto* origin_node = net.find_as<FloodingNode>(origin);
  std::unordered_set<NodeId> hits;
  origin_node->set_hit_callback(
      [&hits](QueryId, const MatchRecord& m) { hits.insert(m.id); });
  auto sent_before = net.stats().sent();
  origin_node->flood(q, /*ttl=*/12);
  sim.run();
  Outcome o;
  o.messages = net.stats().sent() - sent_before;
  o.delivery = truth == 0 ? 1.0
                          : static_cast<double>(hits.size()) /
                                static_cast<double>(truth);
  o.note = "cost ~ N x degree, independent of selectivity";
  o.totals = totals_of(sim);
  return o;
}

Outcome run_slicing(const std::vector<Point>& profiles, double fraction,
                    std::uint64_t seed) {
  Simulator sim(seed);
  Network net(sim, make_lan_latency());
  std::vector<NodeId> ids;
  Rng seeder(seed);
  for (const auto& p : profiles)
    ids.push_back(net.add_node(std::make_unique<SlicingNode>(
        static_cast<double>(p[0]), 10 * kSecond, seeder.fork())));
  for (NodeId id : ids) net.find_as<SlicingNode>(id)->set_peers(ids);

  const double cycles = 40;
  sim.run_until(static_cast<SimTime>(cycles * 10) * kSecond);

  // Slice accuracy: nodes believing they are in the top `fraction` vs the
  // true top-`fraction` by attribute.
  std::vector<double> attrs;
  for (const auto& p : profiles) attrs.push_back(static_cast<double>(p[0]));
  std::sort(attrs.begin(), attrs.end());
  double cut = attrs[static_cast<std::size_t>((1.0 - fraction) *
                                              static_cast<double>(attrs.size()))];
  std::size_t correct = 0, claimed = 0, truth = 0;
  for (NodeId id : ids) {
    auto* n = net.find_as<SlicingNode>(id);
    bool is_top = n->attribute() >= cut;
    bool claims = n->in_top_slice(fraction);
    truth += is_top;
    claimed += claims;
    correct += (is_top && claims);
  }
  Outcome o;
  o.messages = net.stats().sent();  // the whole overlay gossips to answer
  o.delivery = truth == 0 ? 1.0
                          : static_cast<double>(correct) /
                                static_cast<double>(truth);
  o.note = "recall of self-selected slice; single attribute, fraction-only "
           "queries (" +
           std::to_string(claimed) + " claimed / " + std::to_string(truth) +
           " true)";
  o.totals = totals_of(sim);
  return o;
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Baseline comparison", "ours vs flooding vs ordered slicing (§2)",
      "flooding touches every node regardless of selectivity; ordered "
      "slicing needs the whole overlay to gossip for each metric and only "
      "answers fraction-of-best queries; the cell overlay answers exact "
      "multi-attribute range queries at cost ~ matches");

  Setup s = read_setup(2000);
  print_setup(s);
  const double f = 0.125;

  auto space = AttributeSpace::uniform(5, 3, 0, 80);
  Rng rng(s.seed + 42);
  auto gen = uniform_points(space, 0, 80);
  std::vector<Point> profiles;
  for (std::size_t i = 0; i < s.n; ++i) profiles.push_back(gen(rng));

  // "Top f of attribute 0" as a value threshold (quantile).
  std::vector<AttrValue> vals;
  for (const auto& p : profiles) vals.push_back(p[0]);
  std::sort(vals.begin(), vals.end());
  AttrValue threshold =
      vals[static_cast<std::size_t>((1.0 - f) * static_cast<double>(vals.size()))];

  // The three systems are independent jobs run on ARES_THREADS workers
  // (they only read the shared profiles vector).
  std::vector<std::function<Outcome()>> jobs{
      [&] { return run_ours(profiles, space, threshold, s.seed, s.shards); },
      [&] { return run_flooding(profiles, 5, threshold, s.seed + 1); },
      [&] { return run_slicing(profiles, f, s.seed + 2); },
  };
  const std::size_t threads = exp::resolve_threads(jobs.size());
  exp::BenchReport report("baseline_comparison");
  report.set_threads(threads);
  report.set_shards(s.shards);
  auto results = exp::run_jobs<Outcome>(jobs, threads);

  const char* names[] = {"cell overlay (ours)", "flooding (Zorilla-like)",
                         "ordered slicing [26]"};
  exp::Table t({"system", "messages", "delivery/recall", "notes"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Outcome& o = results[i];
    t.row({names[i], std::to_string(o.messages), exp::fmt(o.delivery, 3),
           o.note});
    report.point()
        .str("system", names[i])
        .num("messages", o.messages)
        .num("delivery", o.delivery)
        .num("sim_events", o.totals.events)
        .num("late_events", o.totals.late);
    report.add_events(o.totals.events, o.totals.late);
  }
  t.print();
  report.write();
  return 0;
}
