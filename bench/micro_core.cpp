/// Protocol-core microbenchmarks: cell geometry, region overlap, routing-
/// table classification, the RNG, the oracle bootstrap itself and one
/// end-to-end query on an oracle grid.
///
/// Every case runs the steady_clock loop micro_sim and micro_wire use: a
/// warmup, then a timed run whose results fold into a checksum so no work
/// is optimised away. One ns/op row per case goes to stdout and to
/// BENCH_micro_core.json. The geometry cases run at d=5 (Table 1) and at
/// kMaxDimensions, the widest space a Point holds.
///
/// ARES_MICRO_OPS scales the iteration counts (default 1,000,000 per
/// geometry case; the grid cases run proportionally fewer).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "exp/bench_json.h"
#include "exp/grid.h"
#include "exp/reporting.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace {

using namespace ares;
using Clock = std::chrono::steady_clock;

std::uint64_t sink = 0;  // checksum: defeats dead-code elimination

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Result {
  std::string name;
  std::uint64_t iters = 0;
  double ns_per_op = 0.0;
};

/// Times `iters` calls of `op` after a 10% warmup; every return value
/// folds into the checksum.
template <typename Op>
Result time_loop(std::string name, std::uint64_t iters, Op op) {
  for (std::uint64_t i = 0; i < iters / 10; ++i) sink += op();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) sink += op();
  return {std::move(name), iters, seconds_since(t0) * 1e9 / static_cast<double>(iters)};
}

/// The geometry cases that depend on the dimensionality `d`.
void bench_geometry(int d, std::uint64_t ops, std::vector<Result>& out) {
  const std::string tag = "/d=" + std::to_string(d);
  auto space = AttributeSpace::uniform(d, 3, 0, 80);
  Cells cells(space);
  const auto n = static_cast<std::size_t>(d);

  const Point p(n, 41);
  out.push_back(time_loop("coord_of" + tag, ops, [&] {
    return std::uint64_t{space.coord_of(p)[0]};
  }));

  const CellCoord c(n, 3);
  int l = 1, k = 0;
  out.push_back(time_loop("neighbor_region" + tag, ops, [&] {
    const Region r = cells.neighbor_region(c, l, k);
    const std::uint64_t lo = r.interval(k).lo;
    k = (k + 1) % d;
    if (k == 0) l = 1 + (l % 3);
    return lo;
  }));

  Rng rng(1);
  CellCoord a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<CellIndex>(rng.below(8));
    b[i] = static_cast<CellIndex>(rng.below(8));
  }
  out.push_back(time_loop("classify" + tag, ops, [&] {
    const auto slot = cells.classify(a, b);
    return slot ? static_cast<std::uint64_t>(slot->level + slot->dim) : 0;
  }));
}

/// A grid of `n` nodes at Table 1 defaults (d=5, 3 levels), with the
/// oracle bootstrap run at construction when `oracle` is set.
std::unique_ptr<Grid> make_grid(std::size_t n, bool oracle) {
  Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
  cfg.nodes = n;
  cfg.oracle = oracle;
  cfg.latency = "lan";
  cfg.seed = 1;
  cfg.protocol.gossip_enabled = false;
  cfg.track_visited = false;
  PointGen gen = uniform_points(cfg.space, 0, 80);
  return std::make_unique<Grid>(std::move(cfg), std::move(gen));
}

/// Grid construction stays untimed; only rebootstrap() is measured.
Result bench_bootstrap(std::size_t n, std::uint64_t reps) {
  double secs = 0.0;
  for (std::uint64_t i = 0; i < reps; ++i) {
    auto grid = make_grid(n, /*oracle=*/false);
    const auto t0 = Clock::now();
    grid->rebootstrap();
    secs += seconds_since(t0);
    sink += grid->random_node();
  }
  return {"oracle_bootstrap/n=" + std::to_string(n), reps,
          secs * 1e9 / static_cast<double>(reps)};
}

}  // namespace

int main() {
  const std::uint64_t ops = option_u64("MICRO_OPS", 1'000'000);
  std::cout << "protocol-core microbenchmarks, " << ops
            << " ops per geometry case (ARES_MICRO_OPS to scale)\n\n";

  exp::BenchReport report("micro_core");
  report.set_threads(1);
  std::vector<Result> results;

  {
    auto space = AttributeSpace::uniform(5, 3, 0, 80);
    AttrValue v = 0;
    results.push_back(time_loop("cell_index", ops, [&] {
      const std::uint64_t i = space.cell_index(0, v);
      v = (v + 7) % 90;
      return i;
    }));

    Cells cells(space);
    const Region a = cells.neighbor_region(CellCoord{1, 2, 3, 4, 5}, 2, 1);
    const Region b = RangeQuery::any(5).with(0, 10, 60).with(3, 5, 25).to_region(space);
    results.push_back(time_loop("region_intersects", ops, [&] {
      return std::uint64_t{a.intersects(b)};
    }));

    const auto q = RangeQuery::any(5).with(0, 10, 60).with(2, 0, 40).with(4, 44, 79);
    results.push_back(time_loop("query_to_region", ops, [&] {
      return std::uint64_t{q.to_region(space).interval(4).hi};
    }));

    Rng rng(1);
    results.push_back(time_loop("rng_below", ops, [&] { return rng.below(12345); }));
  }
  for (int d : {5, static_cast<int>(kMaxDimensions)}) bench_geometry(d, ops, results);

  const std::uint64_t reps = std::max<std::uint64_t>(1, ops / 500'000);
  results.push_back(bench_bootstrap(1000, reps));
  results.push_back(bench_bootstrap(10000, reps));

  {
    auto grid = make_grid(2000, /*oracle=*/true);
    Rng rng(2);
    const std::uint64_t queries = std::max<std::uint64_t>(10, ops / 1000);
    results.push_back(time_loop("end_to_end_query/n=2000", queries, [&] {
      const auto q = best_case_query(grid->space(), 0.125, rng);
      return grid->run_query(grid->random_node(), q, 50).matches.size();
    }));
  }

  exp::Table t({"benchmark", "iterations", "ns/op"});
  std::uint64_t total = 0;
  for (const Result& r : results) {
    t.row({r.name, std::to_string(r.iters), exp::fmt(r.ns_per_op, 1)});
    report.point()
        .str("bench", r.name)
        .num("iterations", r.iters)
        .num("ns_per_op", r.ns_per_op);
    total += r.iters;
  }
  t.print();
  if (sink == 0) std::cerr << "";  // keep the checksum alive

  // events_per_sec falls back to this op rate (the grid cases' simulator
  // events are not counted).
  report.add_ops(total);
  report.summary().num("ops", ops);
  report.write();
  return 0;
}
