/// ares_bench: the repository benchmark driver. It runs ONE workload per
/// process, derives every input from --seed, checks every answer, and prints
/// a JSON object as the last line of stdout. README.md in this directory
/// documents the workloads and metrics; run.py builds, runs and compares.
///
///   ares_bench --workload <serve-hot|serve-paper|gossip-churn|udp-live>
///              [--seed 1] [--seconds 10] [--trace FILE] [--smoke]
///              [--shards S]
///
/// A run is kRounds rounds. Each round sets up its own overlay from a seed
/// derived from --seed, then measures a third of the run's work on it; the
/// run reports the median round for wall-clock metrics and totals for
/// counts. --seconds sizes that work: it is calibrated to about that many
/// wall seconds on a 4-core x86 box and is a pure function of (seed,
/// seconds), so two commits measure identical work.
/// --trace records a span around every call into the library and writes them
/// to FILE as Chrome trace-event JSON at exit. The library calls are the same
/// with and without it; tracing only adds clock reads and span records.
/// --smoke shrinks every workload (N = 2,000; 2 processes x 16 nodes).
/// --shards overrides a simulator workload's shard count (for sweeps).
///
/// Only public library APIs are used. Exit status 1 on a wrong answer, a
/// late simulator event or a failed deployment; the JSON is still printed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hashing.h"
#include "common/summary.h"
#include "exp/bench_json.h"
#include "exp/deploy.h"
#include "exp/experiment.h"
#include "exp/grid.h"
#include "exp/load.h"
#include "sim/churn.h"
#include "workload/churn_schedule.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace {

using namespace ares;

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Rounds per run (see the file comment).
constexpr int kRounds = 3;
/// A live deployment sets up in milliseconds, so setup_s takes more samples.
constexpr int kLiveSetupReps = 9;

// Input streams. The serve-hot catalogue and portal streams are deliberately
// not seeded.
constexpr std::uint64_t kRoundStream = 0x726F756E64ULL;      // "round"
constexpr std::uint64_t kServeStream = 0x7365727665ULL;      // "serve"
constexpr std::uint64_t kChurnStream = 0x636875726EULL;      // "churn"
constexpr std::uint64_t kCatalogueStream = 0x636174616CULL;  // "catal"
constexpr std::uint64_t kPortalStream = 0x706F727461ULL;     // "porta"

std::uint64_t round_seed(std::uint64_t seed, int round) {
  return hash_mix(seed ^ kRoundStream, static_cast<std::uint64_t>(round));
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory on the driving thread, written at exit.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t parent;   // index into the span list, -1 for a root
    std::int64_t arrival;  // query arrival index, -1 when none
    std::int64_t start_ns;
    std::int64_t end_ns;
    bool measured;  // opened during a measured phase (not set-up)
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Marks the start or end of a measured phase.
  void measuring(bool on) { measuring_ = on; }

  std::int64_t begin(const char* name, std::int64_t arrival) {
    if (!on_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), arrival, now_ns(), 0,
                      measuring_});
    open_.push_back(id);
    return id;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  /// Durations (ns) of the spans named `name` in measured (or set-up) phases.
  std::vector<double> durations(const char* name, bool measured) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.measured == measured && std::strcmp(s.name, name) == 0)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
  }

  /// Total self time (duration minus direct children), ns, of the measured
  /// spans named `name`.
  double self_ns(const char* name) const {
    std::vector<double> total(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      total[i] += d;
      if (spans_[i].parent >= 0) total[static_cast<std::size_t>(spans_[i].parent)] -= d;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].measured && std::strcmp(spans_[i].name, name) == 0) sum += total[i];
    return sum;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond clock); the
  /// category is the layer, the part of the name before the dot.
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%lld,\"arrival\":%lld,\"measured\":%s}}",
                    i == 0 ? "" : ",\n", s.name,
                    static_cast<int>(std::strcspn(s.name, ".")), s.name,
                    static_cast<double>(s.start_ns - t0) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    static_cast<long long>(s.parent), static_cast<long long>(s.arrival),
                    s.measured ? "true" : "false");
      f << buf;
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  bool on_;
  bool measuring_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t arrival = -1)
      : t_(t), id_(t.begin(name, arrival)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  Summary s;
  for (double x : v) s.add(x);
  return s.median();
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

/// The highest of these percentiles with at least ten samples beyond it.
double tail_quantile(std::size_t samples) {
  for (double q : {0.999, 0.99, 0.95, 0.9})
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  return 0.5;
}

/// |got ∩ truth| / |truth| for ascending id lists (1 when nothing matches).
double reached_share(const std::vector<NodeId>& truth, const std::vector<NodeId>& got) {
  if (truth.empty()) return 1.0;
  std::vector<NodeId> reached;
  std::set_intersection(truth.begin(), truth.end(), got.begin(), got.end(),
                        std::back_inserter(reached));
  return static_cast<double>(reached.size()) / static_cast<double>(truth.size());
}

/// CPU time and peak RSS of the forked deployment processes reaped so far.
struct ChildUsage {
  double user_us = 0.0;
  double sys_us = 0.0;
  double maxrss_bytes = 0.0;
};

ChildUsage child_usage() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime), us(ru.ru_stime), static_cast<double>(ru.ru_maxrss) * 1024.0};
}

// ---------------------------------------------------------------------------
// Counters (NetworkStats + Metrics), diffed around a measured phase.
// ---------------------------------------------------------------------------

const char* const kCounterNames[] = {
    "gossip.cycles",         "query.timeouts",          "query.retries",
    "query.cache_hit",       "query.cache_miss",        "query.cache_evict",
    "query.coalesce_attach", "query.coalesce_dispatch", "wire.decode_fail"};

using Traffic = std::map<std::string, NetworkStats::TypeCounter, std::less<>>;

struct Counters {
  Traffic traffic;
  std::map<std::string, double, std::less<>> named;
  double events = 0.0;

  double count(std::string_view type) const {
    auto it = traffic.find(type);
    return it == traffic.end() ? 0.0 : static_cast<double>(it->second.count);
  }
  double bytes(std::string_view type) const {
    auto it = traffic.find(type);
    return it == traffic.end() ? 0.0 : static_cast<double>(it->second.bytes);
  }
  /// Bytes, or frames, of every frame type starting with `prefix`.
  double prefix_sum(std::string_view prefix, bool want_bytes) const {
    double total = 0.0;
    for (const auto& [type, tc] : traffic)
      if (std::string_view(type).starts_with(prefix))
        total += static_cast<double>(want_bytes ? tc.bytes : tc.count);
    return total;
  }
  double gossip_bytes() const {
    return prefix_sum("cyclon.", true) + prefix_sum("vicinity.", true);
  }
  double counter(std::string_view name) const {
    auto it = named.find(name);
    return it == named.end() ? 0.0 : it->second;
  }

  /// Adds `sign` x `other`. With sign -1 a later snapshot becomes the delta
  /// since `other` (the unsigned counts wrap back to the difference).
  void add(const Counters& other, std::int64_t sign = 1) {
    for (const auto& [type, tc] : other.traffic) {
      auto& mine = traffic[type];
      mine.count += static_cast<std::uint64_t>(sign) * tc.count;
      mine.bytes += static_cast<std::uint64_t>(sign) * tc.bytes;
    }
    for (const auto& [name, v] : other.named)
      named[name] += static_cast<double>(sign) * v;
    events += static_cast<double>(sign) * other.events;
  }
};

Counters snapshot(Grid& grid) {
  Counters c;
  c.traffic = grid.net().stats().sent_by_type();
  for (const char* name : kCounterNames)
    c.named[name] = static_cast<double>(grid.net().metrics().total(name));
  c.events = static_cast<double>(grid.sim().executed_events());
  return c;
}

// ---------------------------------------------------------------------------
// Totals over the rounds of a run, and the metrics computed from them.
// ---------------------------------------------------------------------------

struct Totals {
  std::vector<double> setup_s;  // one per set-up
  std::vector<double> cost_us;  // cost per op, one per round
  double ops = 0.0;             // completed queries, or gossip node-cycles
  double queries = 0.0;         // queries issued
  bool ops_are_node_cycles = false;
  double delivered = 0.0;       // sum of per-query delivery
  std::uint64_t failed = 0;     // queries failed, wrong or incomplete
  std::uint64_t wrong = 0;      // answers that violate correctness
  Counters delta;               // counters over the measured phases
  // Simulator workloads only.
  Summary latency;  // simulated s, every completed query
  std::size_t pending_peak = 0;
  double late_events = 0.0;
  double nodes = 0.0;
  double rss_setup_per_node = 0.0;  // peak RSS after the first set-up
  std::vector<double> overhead, neighbors, alloc_setup, alloc_end;  // per round

  /// Records a finished simulator set-up.
  void setup_done(double seconds, Grid& grid) {
    setup_s.push_back(seconds);
    nodes = static_cast<double>(grid.config().nodes);
    if (rss_setup_per_node == 0.0)
      rss_setup_per_node = static_cast<double>(exp::peak_rss_bytes()) / nodes;
    alloc_setup.push_back(static_cast<double>(exp::allocator_stats().in_use_bytes) /
                          nodes);
  }

  /// Records the end of a simulator round's measured phase.
  void round_done(Grid& grid, const Counters& before) {
    Counters d = snapshot(grid);
    d.add(before, -1);
    delta.add(d);
    late_events += static_cast<double>(grid.sim().late_events());
    overhead.push_back(grid.stats().mean_overhead());
    neighbors.push_back(exp::neighbor_counts(grid).mean());
    alloc_end.push_back(static_cast<double>(exp::allocator_stats().in_use_bytes) /
                        nodes);
  }
};

/// Correctness, counts and a flat metric map, printed as one JSON line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void set(const std::string& name, double v) { metrics[name] = v; }

  void fail(const std::string& why) {
    correct = false;
    std::cerr << "ares_bench: FAIL: " << why << "\n";
  }

  void print(const std::string& workload, std::uint64_t seed) const {
    std::cout << "{\"workload\":" << exp::json_quote(workload) << ",\"seed\":" << seed
              << ",\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, v] : metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
      std::cout << (first ? "" : ",") << exp::json_quote(name) << ':' << buf;
      first = false;
    }
    std::cout << "}}" << std::endl;
  }
};

/// End-to-end metrics and the per-layer metrics every workload reports.
void report(Result& r, const Totals& t) {
  r.attempted = static_cast<std::uint64_t>(t.queries);
  r.failed = t.failed;
  if (t.wrong != 0) r.fail(std::to_string(t.wrong) + " wrong or missing answers");
  r.set("setup_s", median(t.setup_s));
  r.set("cost_us_per_op", median(t.cost_us));
  // Per completed query, the query protocol's frames; per gossip
  // node-cycle, the overlay's.
  const double wire = t.ops_are_node_cycles ? t.delta.gossip_bytes()
                                            : t.delta.prefix_sum("select.", true);
  r.set("wire_bytes_per_op", ratio(wire, t.ops));
  r.set("delivery", ratio(t.delivered, t.queries));

  const Counters& d = t.delta;
  const double q = t.queries;
  const double node_cycles = d.counter("gossip.cycles");
  r.set("core.query_msgs_per_query", ratio(d.count("select.query"), q));
  r.set("core.reply_msgs_per_query", ratio(d.count("select.reply"), q));
  r.set("core.bytes_per_query", ratio(d.prefix_sum("select.", true), q));
  r.set("core.timeouts_per_query", ratio(d.counter("query.timeouts"), q));
  r.set("core.retries_per_query", ratio(d.counter("query.retries"), q));
  const double hits = d.counter("query.cache_hit");
  r.set("core.cache_hit_rate", ratio(hits, hits + d.counter("query.cache_miss")));
  const double attach = d.counter("query.coalesce_attach");
  r.set("core.coalesce_attach_rate",
        ratio(attach, attach + d.counter("query.coalesce_dispatch")));
  r.set("core.cache_evictions_per_query", ratio(d.counter("query.cache_evict"), q));
  r.set("gossip.cyclon_bytes_per_node_cycle",
        ratio(d.prefix_sum("cyclon.", true), node_cycles));
  r.set("gossip.vicinity_bytes_per_node_cycle",
        ratio(d.prefix_sum("vicinity.", true), node_cycles));
  r.set("gossip.msgs_per_node_cycle",
        ratio(d.prefix_sum("cyclon.", false) + d.prefix_sum("vicinity.", false),
              node_cycles));
  for (const char* type : {"cyclon.request", "cyclon.reply", "vicinity.request",
                           "vicinity.reply", "select.query", "select.reply"}) {
    std::string suffix = type;
    std::replace(suffix.begin(), suffix.end(), '.', '_');
    r.set("wire.frame_bytes." + suffix, ratio(d.bytes(type), d.count(type)));
  }
  r.set("wire.decode_fail", d.counter("wire.decode_fail"));
}

/// Per-layer metrics of the simulator workloads: counters from the totals,
/// times from the measured (or set-up) spans of a traced run.
void report_sim(Result& r, const Totals& t, const Tracer& tr) {
  const double events = t.delta.events;
  r.set("peak_rss_bytes_per_node", t.rss_setup_per_node);
  r.set("sim.events_per_op", ratio(events, t.ops));
  r.set("sim.pending_peak", static_cast<double>(t.pending_peak));
  r.set("sim.late_events", t.late_events);
  if (t.late_events != 0.0) r.fail("late simulator events");
  r.set("sim.ns_per_event", ratio(tr.self_ns("sim.run_until"), events));
  Summary slices;
  for (double ns : tr.durations("sim.run_until", true)) slices.add(ns);
  r.set("sim.slice_wall_p99_ms", slices.empty() ? 0.0 : slices.quantile(0.99) / 1e6);
  r.set("core.submit_us", mean(tr.durations("core.submit", true)) / 1e3);
  const double q = tail_quantile(t.latency.count());
  r.set("core.latency_samples", static_cast<double>(t.latency.count()));
  r.set("core.latency_tail_pct", 100.0 * q);
  r.set("core.latency_p50_s", t.latency.empty() ? 0.0 : t.latency.quantile(0.5));
  r.set("core.latency_tail_s", t.latency.empty() ? 0.0 : t.latency.quantile(q));
  r.set("core.overhead_msgs_per_query", mean(t.overhead));
  r.set("gossip.neighbors_mean", mean(t.neighbors));
  r.set("exp.grid_build_s", median(tr.durations("exp.Grid", false)) / 1e9);
  r.set("exp.oracle_bootstrap_s", median(tr.durations("exp.rebootstrap", false)) / 1e9);
  r.set("exp.convergence_s", median(tr.durations("exp.converge", false)) / 1e9);
  r.set("mem.alloc_in_use_bytes_per_node_setup", median(t.alloc_setup));
  r.set("mem.alloc_in_use_bytes_per_node_end", median(t.alloc_end));
  r.set("mem.peak_rss_bytes_per_node_end",
        ratio(static_cast<double>(exp::peak_rss_bytes()), t.nodes));
}

// ---------------------------------------------------------------------------
// serve-hot / serve-paper: open-loop query serving on an oracle overlay.
// ---------------------------------------------------------------------------

struct ServeSpec {
  std::size_t nodes = 100000;
  std::uint32_t shards = 1;
  std::size_t arrivals = 0;  // per round; main() sizes it from --seconds
  double rate_qps = 2000.0;
  /// Popular catalogue: `pool` shapes asked from `portals` portals. 0/0:
  /// a fresh query per arrival at a uniformly random node.
  std::size_t portals = 16;
  std::size_t pool = 16;
  double f = 0.01;
  std::uint32_t sigma = kNoSigma;
};

/// One arrival's outcome, written by its completion callback (possibly on a
/// shard worker; each slot has exactly one writer).
struct Outcome {
  SimTime done_at = 0;
  std::uint32_t count = 0;
  std::uint8_t done = 0;
  std::uint8_t ok = 0;
};

/// Portals: the nodes nearest to fixed points of the attribute space.
std::vector<NodeId> nearest_portals(Grid& grid, std::size_t count) {
  Rng rng(kPortalStream);
  auto gen = uniform_points(grid.space(), 0, 80);
  std::vector<Point> targets;
  for (std::size_t i = 0; i < count; ++i) targets.push_back(gen(rng));
  std::vector<NodeId> best(count, kInvalidNode);
  std::vector<double> best_d(count, std::numeric_limits<double>::infinity());
  for (NodeId id : grid.node_ids()) {
    const Point& v = grid.node(id).values();
    for (std::size_t i = 0; i < count; ++i) {
      double d = 0.0;
      for (std::size_t k = 0; k < v.size(); ++k) {
        const double diff =
            static_cast<double>(v[k]) - static_cast<double>(targets[i][k]);
        d += diff * diff;
      }
      if (d < best_d[i]) {
        best_d[i] = d;
        best[i] = id;
      }
    }
  }
  return best;
}

void serve_round(const ServeSpec& s, std::uint64_t seed, Tracer& tr, Totals& t) {
  const std::int64_t setup0 = now_ns();
  Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
  cfg.nodes = s.nodes;
  cfg.oracle = false;  // bootstrapped below, in its own span
  cfg.latency = "wan";
  cfg.seed = seed;
  cfg.shards = s.shards;
  cfg.track_visited = false;
  cfg.protocol.gossip_enabled = false;
  cfg.protocol.result_cache_capacity = 64;
  cfg.protocol.coalesce_queries = true;
  std::unique_ptr<Grid> grid;
  {
    Scope span(tr, "exp.Grid");
    grid = std::make_unique<Grid>(cfg, uniform_points(cfg.space, 0, 80));
  }
  {
    Scope span(tr, "exp.rebootstrap");
    grid->rebootstrap();
  }
  t.setup_done(seconds_since(setup0), *grid);
  Simulator& sim = grid->sim();
  const AttributeSpace& space = grid->space();

  // The popular catalogue and its portal positions are fixed: with only 16
  // of each, the ones a seed happened to draw moved the cost per query by
  // ±10% between seeds. The seed drives the population and the arrivals.
  std::vector<RangeQuery> pool;
  Rng catalogue(kCatalogueStream);
  for (std::size_t i = 0; i < s.pool; ++i)
    pool.push_back(best_case_query(space, s.f, catalogue));
  const std::vector<NodeId> portals = nearest_portals(*grid, s.portals);

  // The whole open-loop schedule, drawn before anything runs.
  Rng rng(hash_mix(seed, kServeStream));
  const std::vector<NodeId> ids = grid->node_ids();
  const std::size_t n = s.arrivals;
  std::vector<SimTime> due(n);
  std::vector<NodeId> origin(n);
  std::vector<std::uint32_t> shape(n, 0);
  std::vector<RangeQuery> fresh;
  SimTime at = sim.now();
  for (std::size_t i = 0; i < n; ++i) {
    const double gap_s = -std::log(1.0 - rng.uniform()) / s.rate_qps;
    at += std::max<SimTime>(1, static_cast<SimTime>(gap_s * kSecond));
    due[i] = at;
    origin[i] = portals.empty() ? ids[rng.index(ids.size())]
                                : portals[rng.index(portals.size())];
    if (pool.empty()) {
      fresh.push_back(best_case_query(space, s.f, rng));
    } else {
      shape[i] = static_cast<std::uint32_t>(rng.index(pool.size()));
    }
  }
  const auto query_of = [&](std::size_t i) -> const RangeQuery& {
    return pool.empty() ? fresh[i] : pool[shape[i]];
  };

  // Exact answers for the catalogue (sigma = infinity).
  std::vector<std::uint64_t> truth_digest(pool.size());
  std::vector<std::size_t> truth_size(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    Scope span(tr, "space.ground_truth");
    auto truth = grid->ground_truth(pool[i]);
    std::sort(truth.begin(), truth.end());
    truth_digest[i] = result_id_digest(truth);
    truth_size[i] = truth.size();
  }

  // Completion check. sigma = infinity: the id-set digest equals the truth.
  // Otherwise: ascending distinct ids of live nodes whose current values are
  // the returned values and match the query; the count against
  // min(sigma, |truth|) is checked after the run.
  std::vector<Outcome> out(n);
  std::atomic<std::uint64_t> completed{0};
  const auto check = [&](std::size_t i, const std::vector<MatchRecord>& m) {
    if (s.sigma == kNoSigma) {
      std::uint64_t h = hash_mix(kFnvOffset, static_cast<std::uint64_t>(m.size()));
      for (const MatchRecord& rec : m) h = hash_mix(h, rec.id);
      return h == truth_digest[shape[i]];
    }
    const RangeQuery& q = query_of(i);
    for (std::size_t k = 0; k < m.size(); ++k) {
      if (k > 0 && m[k].id <= m[k - 1].id) return false;
      const auto* node = grid->net().find_as<SelectionNode>(m[k].id);
      if (node == nullptr || !(node->values() == m[k].values) || !q.matches(m[k].values))
        return false;
    }
    return true;
  };

  // Arrivals are scheduled one simulated second ahead of the slice that
  // runs them, so the generator is never late.
  tr.measuring(true);
  const Counters before = snapshot(*grid);
  const std::int64_t wall0 = now_ns();
  std::size_t next = 0;
  SimTime slice_end = sim.now();
  const SimTime give_up = due.back() + 600 * kSecond;
  while (completed.load(std::memory_order_acquire) < n && slice_end <= give_up) {
    slice_end += kSecond;
    for (; next < n && due[next] <= slice_end; ++next) {
      sim.schedule_at(due[next], [&, i = next] {
        Scope span(tr, "core.submit", static_cast<std::int64_t>(i));
        grid->node(origin[i]).submit(
            query_of(i), s.sigma, [&, i](const std::vector<MatchRecord>& m) {
              out[i].done_at = sim.now();
              out[i].count = static_cast<std::uint32_t>(m.size());
              out[i].ok = check(i, m) ? 1 : 0;
              out[i].done = 1;
              completed.fetch_add(1, std::memory_order_release);
            });
      });
    }
    {
      Scope span(tr, "sim.run_until");
      sim.run_until(slice_end);
    }
    t.pending_peak = std::max(t.pending_peak, sim.pending_events());
  }
  const double wall_s = seconds_since(wall0);
  tr.measuring(false);
  t.round_done(*grid, before);

  const double done = static_cast<double>(completed.load(std::memory_order_acquire));
  t.cost_us.push_back(ratio(wall_s * 1e6, done));
  t.ops += done;
  t.queries += static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = out[i];
    if (o.done == 0) {
      ++t.failed;
      ++t.wrong;
      continue;
    }
    t.latency.add(static_cast<double>(o.done_at - due[i]) / kSecond);
    // Records a complete answer holds: min(sigma, |truth|).
    std::size_t want = s.sigma;
    if (s.sigma == kNoSigma) {
      want = truth_size[shape[i]];
    } else if (o.count < s.sigma) {
      Scope span(tr, "space.ground_truth", static_cast<std::int64_t>(i));
      want = std::min<std::size_t>(s.sigma, grid->ground_truth(query_of(i)).size());
    }
    if (o.ok == 0 || o.count < want) {
      ++t.failed;
      ++t.wrong;
    }
    t.delivered +=
        want == 0 ? 1.0 : std::min(1.0, static_cast<double>(o.count) / want);
  }
}

// ---------------------------------------------------------------------------
// gossip-churn: a gossip-maintained overlay under replacement churn.
// ---------------------------------------------------------------------------

struct GossipSpec {
  std::size_t nodes = 10000;
  std::uint32_t shards = 1;
  std::size_t converge_cycles = 15;
  std::size_t cycles = 0;  // per round: churn cycles, one query per sim second
  std::size_t max_drain_cycles = 12;
};

/// One query's record. Written by its issue event and its completion
/// callback, both on the coordinator thread (one shard drains inline).
struct Probe {
  SimTime issued = 0;
  SimTime done_at = 0;
  bool done = false;
  bool ok = false;
  std::vector<NodeId> truth;  // matching live nodes at issue, ascending
  std::vector<NodeId> got;    // returned ids, ascending
};

void gossip_round(const GossipSpec& s, std::uint64_t seed, Tracer& tr, Totals& t) {
  constexpr SimTime kPeriod = 10 * kSecond;
  const std::int64_t setup0 = now_ns();
  Grid::Config cfg{.space = AttributeSpace::uniform(5, 3, 0, 80)};
  cfg.nodes = s.nodes;
  cfg.oracle = false;
  cfg.convergence = 0;  // converged below, one run_until per gossip period
  cfg.latency = "lan";
  cfg.seed = seed;
  cfg.shards = s.shards;
  cfg.track_visited = false;
  cfg.protocol.gossip_enabled = true;
  cfg.protocol.gossip_period = kPeriod;
  cfg.protocol.query_timeout = 5 * kSecond;
  cfg.protocol.retry_alternates = true;
  cfg.protocol.routing.slot_capacity = 3;
  cfg.bootstrap_contacts = 5;
  std::unique_ptr<Grid> grid;
  {
    Scope span(tr, "exp.Grid");
    grid = std::make_unique<Grid>(cfg, uniform_points(cfg.space, 0, 80));
  }
  Simulator& sim = grid->sim();
  {
    Scope span(tr, "exp.converge");
    const SimTime start = sim.now();
    for (std::size_t c = 1; c <= s.converge_cycles; ++c) {
      Scope slice(tr, "sim.run_until");
      sim.run_until(start + static_cast<SimTime>(c) * kPeriod);
    }
  }
  t.setup_done(seconds_since(setup0), *grid);

  const std::size_t queries = s.cycles * static_cast<std::size_t>(kPeriod / kSecond);
  Rng rng(hash_mix(seed, kChurnStream));
  std::vector<RangeQuery> shapes;
  for (std::size_t i = 0; i < queries; ++i)
    shapes.push_back(best_case_query(grid->space(), 0.03, rng));
  std::vector<Probe> probes(queries);
  std::int64_t excluded_ns = 0;  // ground truth: inside slices, outside timers

  ChurnDriver churn(grid->net(), grid->churn_factory());
  tr.measuring(true);
  const Counters before = snapshot(*grid);
  const std::int64_t wall0 = now_ns();
  churn.start_replacement_churn(kChurnGnutella.fraction, kChurnGnutella.period);
  const SimTime t0 = sim.now();
  for (std::size_t i = 0; i < queries; ++i) {
    sim.schedule_at(t0 + static_cast<SimTime>(i + 1) * kSecond, [&, i] {
      Probe& p = probes[i];
      p.issued = sim.now();
      {
        const std::int64_t g0 = now_ns();
        Scope span(tr, "space.ground_truth", static_cast<std::int64_t>(i));
        p.truth = grid->ground_truth(shapes[i]);
        excluded_ns += now_ns() - g0;
      }
      // An origin that crashes takes its query with it; churn spares the
      // nodes that issue measurement queries, as in the paper's runs.
      const NodeId origin = grid->random_node();
      churn.protect(origin);
      Scope span(tr, "core.submit", static_cast<std::int64_t>(i));
      grid->node(origin).submit(
          shapes[i], kNoSigma, [&, i](const std::vector<MatchRecord>& m) {
            Probe& done = probes[i];
            done.done_at = sim.now();
            done.done = true;
            done.ok = true;
            for (std::size_t k = 0; k < m.size(); ++k) {
              if ((k > 0 && m[k].id <= m[k - 1].id) || !shapes[i].matches(m[k].values))
                done.ok = false;
              done.got.push_back(m[k].id);
            }
          });
    });
  }
  // Churn for `cycles` gossip periods, then drain until every query has
  // completed (at most max_drain_cycles more periods).
  const auto all_done = [&] {
    return std::all_of(probes.begin(), probes.end(),
                       [](const Probe& p) { return p.done; });
  };
  for (std::size_t c = 1; c <= s.cycles + s.max_drain_cycles; ++c) {
    if (c > s.cycles && all_done()) break;
    if (c == s.cycles + 1) churn.stop();
    Scope span(tr, "sim.run_until");
    sim.run_until(t0 + static_cast<SimTime>(c) * kPeriod);
    t.pending_peak = std::max(t.pending_peak, sim.pending_events());
  }
  const double wall_s = seconds_since(wall0) - static_cast<double>(excluded_ns) * 1e-9;
  tr.measuring(false);
  const double cycles_before = t.delta.counter("gossip.cycles");
  t.round_done(*grid, before);

  const double node_cycles = t.delta.counter("gossip.cycles") - cycles_before;
  t.cost_us.push_back(ratio(wall_s * 1e6, node_cycles));
  t.ops += node_cycles;
  t.queries += static_cast<double>(queries);
  for (const Probe& p : probes) {
    if (!p.done) {
      ++t.failed;
      continue;
    }
    if (!p.ok) {
      ++t.failed;
      ++t.wrong;
    }
    t.latency.add(static_cast<double>(p.done_at - p.issued) / kSecond);
    t.delivered += reached_share(p.truth, p.got);
  }
}

/// Wall time per gossip period of the measured slices, ground truth excluded.
void report_cycle_wall(Result& r, const Tracer& tr) {
  const auto slices = tr.durations("sim.run_until", true);
  double busy_ns = 0.0;
  for (double ns : slices) busy_ns += ns;
  for (double ns : tr.durations("space.ground_truth", true)) busy_ns -= ns;
  r.set("gossip.cycle_wall_ms", ratio(busy_ns / 1e6, static_cast<double>(slices.size())));
}

// ---------------------------------------------------------------------------
// udp-live: the protocol as real processes over loopback UDP.
// ---------------------------------------------------------------------------

struct LiveSpec {
  std::size_t processes = 4;
  std::size_t nodes_per_proc = 256;
  std::size_t queries = 0;  // per round
  std::size_t warmup_cycles = 20;
  SimTime drain = 2 * kSecond;
};

DeployConfig live_config(const LiveSpec& s, std::uint64_t seed) {
  DeployConfig cfg;
  cfg.processes = s.processes;
  cfg.nodes_per_proc = s.nodes_per_proc;
  cfg.queries = s.queries;
  cfg.selectivity = 0.125;
  cfg.seed = seed;
  cfg.gossip_period = 100 * kMillisecond;
  cfg.warmup_cycles = s.warmup_cycles;
  cfg.query_spacing = 100 * kMillisecond;
  cfg.drain = s.drain;
  return cfg;
}

void run_live(const LiveSpec& s, std::uint64_t seed, Tracer& tr, Result& r) {
  Totals t;
  t.ops_are_node_cycles = true;
  // Set-up is a deployment with an empty window: fork, build every node and
  // its oracle tables, handshake, report and reap.
  DeployConfig boot = live_config(s, seed);
  boot.warmup_cycles = 0;
  boot.queries = 0;
  boot.drain = 0;
  for (int rep = 0; rep < kLiveSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    Scope span(tr, "net.run_deployment");
    const BackendRun run = run_deployment(boot);
    t.setup_s.push_back(seconds_since(t0));
    if (!run.ok) r.fail("set-up deployment: " + run.error);
  }

  double user_us = 0.0, sys_us = 0.0, datagrams = 0.0, frames = 0.0;
  double tx_syscalls = 0.0, rx_syscalls = 0.0, header_bytes = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    const DeployConfig cfg = live_config(s, round_seed(seed, round));
    std::vector<std::vector<NodeId>> truth;
    {
      Scope span(tr, "space.ground_truth");
      truth = deployment_ground_truth(cfg);
    }
    tr.measuring(true);
    const ChildUsage c0 = child_usage();
    BackendRun run;
    {
      Scope span(tr, "net.run_deployment");
      run = run_deployment(cfg);
    }
    const ChildUsage c1 = child_usage();
    tr.measuring(false);
    t.queries += static_cast<double>(cfg.queries);
    if (!run.ok) {
      t.failed += cfg.queries;
      t.wrong += cfg.queries;
      r.fail("deployment: " + run.error);
      continue;
    }
    const std::size_t bad = mismatches(run, truth);
    t.failed += bad;
    t.wrong += bad;
    for (std::size_t q = 0; q < truth.size(); ++q) {
      const QueryRecord& rec = run.queries[q];
      if (rec.completed) t.delivered += reached_share(truth[q], rec.matches);
    }

    const double cycles = static_cast<double>(run.gossip_cycles);
    const double user = c1.user_us - c0.user_us;
    const double sys = c1.sys_us - c0.sys_us;
    user_us += user;
    sys_us += sys;
    t.cost_us.push_back(ratio(user + sys, cycles));
    t.ops += cycles;
    Counters d;
    d.traffic = run.traffic;
    d.named["gossip.cycles"] = cycles;
    d.named["wire.decode_fail"] = static_cast<double>(run.decode_fail);
    t.delta.add(d);
    datagrams += static_cast<double>(run.tx_datagrams);
    frames += static_cast<double>(run.tx_frames);
    tx_syscalls += static_cast<double>(run.tx_syscalls);
    rx_syscalls += static_cast<double>(run.rx_syscalls);
    header_bytes += static_cast<double>(run.header_bytes);
  }
  report(r, t);
  const double cycles = t.ops;
  r.set("peak_rss_bytes_per_node",
        child_usage().maxrss_bytes / static_cast<double>(s.nodes_per_proc));
  r.set("net.datagrams_per_node_cycle", ratio(datagrams, cycles));
  r.set("net.frames_per_datagram", ratio(frames, datagrams));
  r.set("net.tx_syscalls_per_node_cycle", ratio(tx_syscalls, cycles));
  r.set("net.rx_syscalls_per_node_cycle", ratio(rx_syscalls, cycles));
  r.set("net.header_bytes_per_node_cycle", ratio(header_bytes, cycles));
  r.set("net.cpu_user_us_per_node_cycle", ratio(user_us, cycles));
  r.set("net.cpu_sys_us_per_node_cycle", ratio(sys_us, cycles));
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  bool smoke = false;
  std::uint32_t shards = 0;  // 0: the workload's own shard count
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = argv[++i];
    } else if (a == "--shards" && has_value) {
      o.shards = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else {
      return false;
    }
  }
  return o.seconds > 0.0 && o.shards <= 64;
}

/// Work units of one round: `per_second` x --seconds / kRounds, at least 1.
std::size_t per_round(double per_second, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(per_second * seconds / kRounds)));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool parsed = false;
  try {
    parsed = parse(argc, argv, o);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::cerr << "usage: ares_bench --workload <serve-hot|serve-paper|gossip-churn|"
                 "udp-live> [--seed N] [--seconds T] [--trace FILE] [--smoke] "
                 "[--shards S]\n";
    return 2;
  }

  Tracer tr(!o.trace.empty());
  Result r;
  Totals t;
  const std::size_t sim_nodes = o.smoke ? 2000 : 0;
  if (o.workload == "serve-hot" || o.workload == "serve-paper") {
    ServeSpec s;
    s.nodes = o.smoke ? sim_nodes : 100000;
    s.arrivals = per_round(4000, o.seconds);
    if (o.workload == "serve-paper") {
      s.shards = 2;
      s.arrivals = per_round(6000, o.seconds);
      s.portals = 0;
      s.pool = 0;
      s.f = 0.125;
      s.sigma = 50;
    }
    if (o.shards != 0) s.shards = o.shards;
    for (int round = 0; round < kRounds; ++round)
      serve_round(s, round_seed(o.seed, round), tr, t);
    report(r, t);
    report_sim(r, t, tr);
  } else if (o.workload == "gossip-churn") {
    GossipSpec s;
    s.nodes = o.smoke ? sim_nodes : 10000;
    s.cycles = per_round(1.5, o.seconds);
    if (o.shards != 0) s.shards = o.shards;
    t.ops_are_node_cycles = true;
    for (int round = 0; round < kRounds; ++round)
      gossip_round(s, round_seed(o.seed, round), tr, t);
    report(r, t);
    report_sim(r, t, tr);
    report_cycle_wall(r, tr);
  } else if (o.workload == "udp-live") {
    LiveSpec s;
    if (o.smoke) {
      s.processes = 2;
      s.nodes_per_proc = 16;
      s.warmup_cycles = 5;
      s.drain = 500 * kMillisecond;
    }
    s.queries = per_round(6.4, o.seconds);
    run_live(s, o.seed, tr, r);
  } else {
    std::cerr << "ares_bench: unknown workload '" << o.workload << "'\n";
    return 2;
  }

  if (!o.trace.empty() && !tr.write(o.trace)) r.fail("cannot write " + o.trace);
  r.print(o.workload, o.seed);
  return r.correct ? 0 : 1;
}
