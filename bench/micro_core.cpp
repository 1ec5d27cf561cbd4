/// google-benchmark micro suite: the hot paths of the protocol — cell
/// geometry, overlap tests, routing-table classification, the event queue,
/// and the oracle bootstrap itself.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/bootstrap.h"
#include "exp/grid.h"
#include "sim/event_queue.h"
#include "wire/codecs.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace {

using namespace ares;

void BM_CellIndex(benchmark::State& state) {
  auto space = AttributeSpace::uniform(5, 3, 0, 80);
  AttrValue v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.cell_index(0, v));
    v = (v + 7) % 90;
  }
}
BENCHMARK(BM_CellIndex);

void BM_CoordOf(benchmark::State& state) {
  auto space = AttributeSpace::uniform(static_cast<int>(state.range(0)), 3, 0, 80);
  Point p(static_cast<std::size_t>(state.range(0)), 41);
  for (auto _ : state) benchmark::DoNotOptimize(space.coord_of(p));
}
BENCHMARK(BM_CoordOf)->Arg(5)->Arg(20);

void BM_NeighborRegion(benchmark::State& state) {
  auto space = AttributeSpace::uniform(static_cast<int>(state.range(0)), 3, 0, 80);
  Cells cells(space);
  CellCoord c(static_cast<std::size_t>(state.range(0)), 3);
  int l = 1, k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cells.neighbor_region(c, l, k));
    k = (k + 1) % space.dimensions();
    if (k == 0) l = 1 + (l % 3);
  }
}
BENCHMARK(BM_NeighborRegion)->Arg(5)->Arg(20);

void BM_RegionOverlap(benchmark::State& state) {
  auto space = AttributeSpace::uniform(5, 3, 0, 80);
  Cells cells(space);
  CellCoord c{1, 2, 3, 4, 5};
  Region a = cells.neighbor_region(c, 2, 1);
  auto q = RangeQuery::any(5).with(0, 10, 60).with(3, 5, 25);
  Region b = q.to_region(space);
  for (auto _ : state) benchmark::DoNotOptimize(a.intersects(b));
}
BENCHMARK(BM_RegionOverlap);

void BM_Classify(benchmark::State& state) {
  auto space = AttributeSpace::uniform(static_cast<int>(state.range(0)), 3, 0, 80);
  Cells cells(space);
  Rng rng(1);
  auto d = static_cast<std::size_t>(state.range(0));
  CellCoord a(d), b(d);
  for (std::size_t i = 0; i < d; ++i) {
    a[i] = static_cast<CellIndex>(rng.below(8));
    b[i] = static_cast<CellIndex>(rng.below(8));
  }
  for (auto _ : state) benchmark::DoNotOptimize(cells.classify(a, b));
}
BENCHMARK(BM_Classify)->Arg(5)->Arg(20);

void BM_QueryToRegion(benchmark::State& state) {
  auto space = AttributeSpace::uniform(5, 3, 0, 80);
  auto q = RangeQuery::any(5).with(0, 10, 60).with(2, 0, 40).with(4, 44, 79);
  for (auto _ : state) benchmark::DoNotOptimize(q.to_region(space));
}
BENCHMARK(BM_QueryToRegion);

void BM_EventQueue(benchmark::State& state) {
  EventQueue q;
  Rng rng(1);
  std::uint64_t key = 0;
  for (int i = 0; i < 1000; ++i)
    q.push_keyed(static_cast<SimTime>(rng.below(1'000'000)), key++, [] {});
  for (auto _ : state) {
    q.push_keyed(static_cast<SimTime>(rng.below(1'000'000)), key++, [] {});
    q.pop()();
  }
}
BENCHMARK(BM_EventQueue);

void BM_RngBelow(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.below(12345));
}
BENCHMARK(BM_RngBelow);

void BM_OracleBootstrap(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
    cfg.nodes = n;
    cfg.oracle = false;  // grid built without bootstrap...
    cfg.latency = "lan";
    cfg.seed = 1;
    cfg.protocol.gossip_enabled = false;
    Grid grid(std::move(cfg), uniform_points(cfg.space, 0, 80));
    state.ResumeTiming();
    grid.rebootstrap();  // ...timed here
  }
}
BENCHMARK(BM_OracleBootstrap)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_EndToEndQuery(benchmark::State& state) {
  Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
  cfg.nodes = 2000;
  cfg.oracle = true;
  cfg.latency = "lan";
  cfg.seed = 1;
  cfg.protocol.gossip_enabled = false;
  cfg.track_visited = false;
  Grid grid(std::move(cfg), uniform_points(cfg.space, 0, 80));
  Rng rng(2);
  for (auto _ : state) {
    auto q = best_case_query(grid.space(), 0.125, rng);
    benchmark::DoNotOptimize(grid.run_query(grid.random_node(), q, 50));
  }
}
BENCHMARK(BM_EndToEndQuery)->Unit(benchmark::kMicrosecond);

void BM_WireEncodeQuery(benchmark::State& state) {
  QueryMsg m;
  m.id = 42;
  m.sigma = 50;
  m.level = 3;
  m.dims_mask = 0b11111;
  m.query = RangeQuery::any(5).with(0, 10, 60).with(3, 5, std::nullopt);
  for (auto _ : state) benchmark::DoNotOptimize(wire::encode(m));
}
BENCHMARK(BM_WireEncodeQuery);

void BM_WireDecodeQuery(benchmark::State& state) {
  QueryMsg m;
  m.query = RangeQuery::any(5).with(0, 10, 60).with(3, 5, std::nullopt);
  auto bytes = wire::encode(m);
  for (auto _ : state) benchmark::DoNotOptimize(wire::decode(bytes));
}
BENCHMARK(BM_WireDecodeQuery);

void BM_WireRoundTripGossip(benchmark::State& state) {
  CyclonShuffleMsg m;
  for (NodeId i = 0; i < 8; ++i)
    m.entries.push_back(PeerDescriptor{i, {1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}, 2});
  for (auto _ : state) {
    auto bytes = wire::encode(m);
    benchmark::DoNotOptimize(wire::decode(bytes));
  }
}
BENCHMARK(BM_WireRoundTripGossip);

}  // namespace

/// Custom main instead of BENCHMARK_MAIN(): console output as usual, plus
/// google-benchmark's own JSON schema mirrored to BENCH_micro_core.json
/// (ARES_BENCH_DIR or cwd) so CI archives the micro numbers alongside the
/// figure binaries' reports.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  std::string dir = ".";
  if (const char* d = std::getenv("ARES_BENCH_DIR"); d != nullptr && *d != '\0')
    dir = d;
  const std::string path = dir + "/BENCH_micro_core.json";
  std::ofstream json_out(path);

  benchmark::ConsoleReporter console;
  benchmark::JSONReporter json;
  json.SetOutputStream(&json_out);
  json.SetErrorStream(&json_out);
  benchmark::RunSpecifiedBenchmarks(&console, &json);
  benchmark::Shutdown();
  if (json_out.good())
    std::cout << "(perf report written to " << path << ")" << std::endl;
  return 0;
}
