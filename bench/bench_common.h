#pragma once

/// \file bench_common.h
/// Shared setup for the figure-reproduction binaries: builds Grids from
/// Table-1-style parameters with ARES_* environment overrides, so the
/// default (minutes-long) run can be scaled up to the paper's full sizes
/// (e.g. ARES_N=100000 ./fig06_network_size).

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "exp/bench_json.h"
#include "exp/experiment.h"
#include "exp/grid.h"
#include "exp/parallel.h"
#include "exp/reporting.h"
#include "workload/churn_schedule.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace ares::bench {

struct Setup {
  std::size_t n = 0;
  int dims = 5;
  int levels = 3;
  double selectivity = 0.125;
  std::uint64_t sigma = 50;
  std::size_t queries = 50;
  std::uint64_t seed = 1;
  /// Simulator shards, in [1, 64] (Grid::Config::shards). Outputs are
  /// identical at any value.
  std::uint32_t shards = 1;
};

/// Reads the paper's Table 1 defaults, each overridable via environment:
/// ARES_N, ARES_DIMS, ARES_LEVELS, ARES_F, ARES_SIGMA (0 = infinity),
/// ARES_QUERIES, ARES_SEED, ARES_SHARDS.
inline Setup read_setup(std::size_t default_n, std::size_t default_queries = 50) {
  Setup s;
  s.n = option_u64("N", default_n);
  s.dims = static_cast<int>(option_u64("DIMS", 5));
  s.levels = static_cast<int>(option_u64("LEVELS", 3));
  s.selectivity = option_double("F", 0.125);
  s.sigma = option_u64("SIGMA", 50);
  s.queries = option_u64("QUERIES", default_queries);
  s.seed = option_u64("SEED", 1);
  s.shards = static_cast<std::uint32_t>(option_u64("SHARDS", 1));
  return s;
}

/// Drops sweep points wider than kMaxDimensions, with a note on stderr:
/// Point/CellCoord store elements inline, so the paper's d=20 points are
/// skipped rather than aborting mid-sweep (raise kMaxDimensions in
/// common/types.h to go wider).
inline void drop_unsupported_dims(const char* bench, std::vector<int>& dims) {
  std::erase_if(dims, [bench](int d) {
    if (static_cast<std::size_t>(d) <= kMaxDimensions) return false;
    std::fprintf(stderr, "%s: skipping d=%d (> kMaxDimensions=%zu)\n", bench, d,
                 kMaxDimensions);
    return true;
  });
}

inline std::uint32_t sigma_of(const Setup& s) {
  return s.sigma == 0 ? kNoSigma : static_cast<std::uint32_t>(s.sigma);
}

/// Executed/late simulator-event totals of one trial, read once at trial end
/// and handed back to the main thread for the BENCH_<name>.json report.
struct SimTotals {
  std::uint64_t events = 0;
  std::uint64_t late = 0;
};

inline SimTotals totals_of(Grid& g) {
  return {g.sim().executed_events(), g.sim().late_events()};
}

inline SimTotals totals_of(Simulator& sim) {
  return {sim.executed_events(), sim.late_events()};
}

inline void print_setup(const Setup& s) {
  exp::print_defaults(s.n, s.selectivity, s.sigma == 0 ? UINT64_MAX : s.sigma,
                      s.dims, s.levels, 10.0, 20);
}

/// Oracle-bootstrapped grid (the converged-overlay experiments).
inline std::unique_ptr<Grid> make_oracle_grid(const Setup& s,
                                              const std::string& latency = "lan",
                                              const char* dist = "uniform",
                                              bool track_visited = true) {
  Grid::Config cfg{.space = AttributeSpace::uniform(s.dims, s.levels, 0, 80)};
  cfg.nodes = s.n;
  cfg.oracle = true;
  cfg.latency = latency;
  cfg.seed = s.seed;
  cfg.shards = s.shards;
  cfg.protocol.gossip_enabled = false;
  cfg.track_visited = track_visited;
  PointGen gen = std::string(dist) == "normal" ? hotspot_points(cfg.space)
                 : std::string(dist) == "xtremlab"
                     ? xtremlab_points(cfg.space)
                     : uniform_points(cfg.space, 0, 80);
  return std::make_unique<Grid>(std::move(cfg), std::move(gen));
}

/// Gossip-maintained grid (churn/failure experiments), converged for
/// `convergence` simulated seconds, with the §4.3 timeout recovery enabled.
/// `default_timeout_s` must exceed the worst-case completion latency of a
/// forwarded subtree (sequential DFS hops x RTT); a premature timeout
/// treats an alive neighbor as dead and purges a healthy link.
inline std::unique_ptr<Grid> make_gossip_grid(const Setup& s,
                                              SimTime convergence,
                                              const std::string& latency = "lan",
                                              bool track_visited = true,
                                              double default_timeout_s = 5.0,
                                              std::size_t slot_capacity = 3) {
  Grid::Config cfg{.space = AttributeSpace::uniform(s.dims, s.levels, 0, 80)};
  cfg.nodes = s.n;
  cfg.oracle = false;
  cfg.convergence = convergence;
  cfg.latency = latency;
  cfg.seed = s.seed;
  cfg.shards = s.shards;
  cfg.protocol.gossip_enabled = true;
  cfg.protocol.query_timeout =
      from_seconds(option_double("TIMEOUT_S", default_timeout_s));
  cfg.protocol.retry_alternates = slot_capacity > 1;
  cfg.protocol.routing.slot_capacity = slot_capacity;
  cfg.bootstrap_contacts = 5;
  cfg.track_visited = track_visited;
  return std::make_unique<Grid>(std::move(cfg),
                                uniform_points(cfg.space, 0, 80));
}

/// f-selective queries at random aligned positions (the default workload).
inline std::vector<RangeQuery> default_queries(const Grid& grid, const Setup& s,
                                               Rng& rng) {
  std::vector<RangeQuery> out;
  out.reserve(s.queries);
  for (std::size_t i = 0; i < s.queries; ++i)
    out.push_back(best_case_query(grid.space(), s.selectivity, rng));
  return out;
}

/// The paper's §6 overlay budget (~2,560 B/node/cycle), gated twice on one
/// run: the delta-coded traffic actually sent must land at least 25% under
/// it, and that traffic plus the wire.bytes_delta_saved meter (what the
/// paper's plain descriptor-list layout would have cost) must reconcile to
/// within +-15% of it. `label` names the backend in the printed verdicts.
inline bool check_gossip_budget(const std::string& label, double wire_bpc,
                                double paper_bpc) {
  constexpr double kBudget = 2560.0;
  bool ok = true;
  const double cap = kBudget * 0.75;
  if (wire_bpc > cap) {
    std::cerr << "FAIL" << label << ": " << wire_bpc
              << " bytes/node/cycle on the wire above the 25%-reduction cap "
              << cap << "\n";
    ok = false;
  } else {
    std::cout << "wire budget check" << label << ": " << exp::fmt(wire_bpc)
              << " <= " << cap << " OK\n";
  }
  const double lo = kBudget * 0.85, hi = kBudget * 1.15;
  if (paper_bpc < lo || paper_bpc > hi) {
    std::cerr << "FAIL" << label << ": paper layout " << paper_bpc
              << " bytes/node/cycle outside paper budget [" << lo << ", " << hi
              << "]\n";
    ok = false;
  } else {
    std::cout << "paper budget check" << label << ": " << exp::fmt(paper_bpc)
              << " in [" << lo << ", " << hi << "] OK\n";
  }
  return ok;
}

}  // namespace ares::bench
