#include "exp/deploy.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/hashing.h"
#include "core/selection_node.h"
#include "exp/grid.h"
#include "net/process.h"
#include "workload/distributions.h"
#include "workload/query_workload.h"

namespace ares {
namespace {

// Decoupled RNG streams: every scenario input is a pure function of the
// config seed, so parent, children, and the sim mirror derive identical
// plans without ever communicating them.
constexpr std::uint64_t kPointStream = 0x706F696E74ULL;  // "point"
constexpr std::uint64_t kQueryStream = 0x7175657279ULL;  // "query"
constexpr std::uint64_t kOracleStream = 0x6F7261636CULL; // "oracl"
constexpr std::uint64_t kIntroStream = 0x696E74726FULL;  // "intro"
constexpr std::uint64_t kNodeStream = 0x6E6F6465ULL;     // "node"
constexpr std::uint64_t kChildStream = 0x6368696C64ULL;  // "child"

std::size_t total_nodes(const DeployConfig& cfg) {
  return cfg.processes * cfg.nodes_per_proc;
}

bool gossip_type(const std::string& type) {
  return type.rfind("cyclon.", 0) == 0 || type.rfind("vicinity.", 0) == 0;
}

/// Wall-clock window a child runs for after "go" (relative microseconds).
SimTime wall_window(const DeployConfig& cfg) {
  return static_cast<SimTime>(cfg.warmup_cycles) * cfg.gossip_period +
         static_cast<SimTime>(cfg.queries) * cfg.query_spacing + cfg.drain;
}

ProtocolConfig deployment_protocol(const DeployConfig& cfg) {
  ProtocolConfig proto;
  proto.gossip_enabled = true;
  proto.gossip_period = cfg.gossip_period;
  proto.query_timeout = cfg.query_timeout;
  return proto;
}

/// Deterministic introducers for node `id`: up to cfg.introducers distinct
/// other nodes. Same draw in every process (only the hosting child uses it).
std::vector<PeerDescriptor> introducers_for(const DeployConfig& cfg,
                                            const std::vector<Point>& points,
                                            NodeId id) {
  const std::size_t n = points.size();
  std::vector<PeerDescriptor> out;
  if (n < 2 || cfg.introducers == 0) return out;
  Rng rng(hash_mix(cfg.seed ^ kIntroStream, id));
  const std::size_t want = std::min(cfg.introducers, n - 1);
  for (std::size_t idx : rng.sample_indices(n, std::min(want + 1, n))) {
    if (idx == id) continue;
    out.push_back(PeerDescriptor{static_cast<NodeId>(idx), points[idx]});
    if (out.size() == want) break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Child process
// ---------------------------------------------------------------------------

struct ChildProc {
  int sock = -1;
  net::Pipe ctl;  // parent -> child
  net::Pipe res;  // child -> parent
  int pid = -1;
};

/// Runs the hosted slice of the deployment in a forked child; never returns.
/// Exit codes: 0 ok, 2 handshake write failed, 3 "go" never arrived,
/// 4 report write failed.
[[noreturn]] void run_child(const DeployConfig& cfg, std::size_t p,
                            const std::vector<ChildProc>& kids,
                            const net::AddressBook& book,
                            const std::vector<Point>& points,
                            const std::vector<QueryPlan>& plans) {
  // Keep only our socket and our pipe ends; everything else is the
  // parent's or a sibling's business.
  for (std::size_t q = 0; q < kids.size(); ++q) {
    if (q != p) net::close_fd(kids[q].sock);
    net::close_fd(kids[q].ctl.write_fd);
    net::close_fd(kids[q].res.read_fd);
    if (q != p) {
      net::close_fd(kids[q].ctl.read_fd);
      net::close_fd(kids[q].res.write_fd);
    }
  }
  const int ctl = kids[p].ctl.read_fd;
  const int res = kids[p].res.write_fd;

  const std::size_t n = points.size();
  const NodeId first = static_cast<NodeId>(p * cfg.nodes_per_proc);
  const NodeId last = static_cast<NodeId>(first + cfg.nodes_per_proc);

  // Every process knows the whole population's profiles: the store resolves
  // compact gossip handles, and the oracle overlay is computed globally
  // (installed only for hosted tables).
  DescriptorStore store(cfg.space);
  store.reserve(n);
  std::vector<NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<NodeId>(i);
    store.put(ids[i], points[i]);
  }

  // Every hosted node references this one config, so it is declared before
  // the runtime that owns the nodes and outlives them.
  const ProtocolConfig proto = deployment_protocol(cfg);
  net::UdpRuntime::Config rc;
  rc.seed = hash_mix(cfg.seed ^ kChildStream, p);
  rc.faults = cfg.faults;
  net::UdpRuntime rt(kids[p].sock, book, rc);

  for (NodeId id = first; id < last; ++id) {
    rt.add_node(id, std::make_unique<SelectionNode>(
                        cfg.space, store, points[id], proto,
                        introducers_for(cfg, points, id),
                        Rng(hash_mix(cfg.seed ^ kNodeStream, id))));
  }

  Rng orng(cfg.seed ^ kOracleStream);
  oracle_fill(
      store, ids,
      [&rt](std::size_t i) -> RoutingTable* {
        auto* sn = rt.find_as<SelectionNode>(static_cast<NodeId>(i));
        return sn == nullptr ? nullptr : &sn->routing();
      },
      cfg.oracle, orng);

  // Our share of the query schedule (relative due times after "go").
  struct Pending {
    std::size_t index;
    NodeId origin;
    SimTime due;
    bool submitted = false;
  };
  std::vector<Pending> mine;
  const SimTime warmup = static_cast<SimTime>(cfg.warmup_cycles) * cfg.gossip_period;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (plans[i].origin >= first && plans[i].origin < last)
      mine.push_back({i, plans[i].origin,
                      warmup + static_cast<SimTime>(i) * cfg.query_spacing, false});
  }
  struct Outcome {
    bool completed = false;
    std::vector<NodeId> matches;
  };
  std::unordered_map<std::size_t, Outcome> results;

  if (!net::write_line(res, "ready")) net::exit_child(2);
  std::string line;
  if (!net::read_line(ctl, line, 60000) || line != "go") net::exit_child(3);

  const SimTime t0 = rt.now();
  const SimTime t_end = wall_window(cfg);
  while (rt.now() - t0 < t_end) {
    const SimTime now_rel = rt.now() - t0;
    SimTime next_due = t_end;
    for (auto& pq : mine) {
      if (pq.submitted) continue;
      if (pq.due > now_rel) {
        next_due = std::min(next_due, pq.due);
        continue;
      }
      pq.submitted = true;
      const std::size_t idx = pq.index;
      rt.find_as<SelectionNode>(pq.origin)->submit(
          plans[idx].query, kNoSigma,
          [idx, &results](const std::vector<MatchRecord>& ms) {
            Outcome& o = results[idx];
            o.completed = true;
            o.matches.clear();
            for (const auto& m : ms) o.matches.push_back(m.id);
            std::sort(o.matches.begin(), o.matches.end());
          });
    }
    const SimTime wait = std::min<SimTime>(
        {20 * kMillisecond, next_due - now_rel, t_end - now_rel});
    rt.poll_once(std::max<SimTime>(wait, 0));
  }

  // Report, newest protocol element last so the parent can stream-parse.
  bool w = true;
  for (const auto& pq : mine) {
    std::ostringstream os;
    os << "query " << pq.index << ' ' << pq.origin << ' ';
    auto it = results.find(pq.index);
    const bool done = it != results.end() && it->second.completed;
    os << (done ? 1 : 0) << ' ';
    if (!done || it->second.matches.empty()) {
      os << '-';
    } else {
      for (std::size_t j = 0; j < it->second.matches.size(); ++j) {
        if (j != 0) os << ',';
        os << it->second.matches[j];
      }
    }
    w = w && net::write_line(res, os.str());
  }
  for (const auto& [type, tc] : rt.stats().sent_by_type()) {
    std::ostringstream os;
    os << "traffic " << type << ' ' << tc.count << ' ' << tc.bytes;
    w = w && net::write_line(res, os.str());
  }
  const auto metric = [&](const char* name, std::uint64_t v) {
    std::ostringstream os;
    os << "metric " << name << ' ' << v;
    w = w && net::write_line(res, os.str());
  };
  metric("gossip_cycles", rt.metrics().total("gossip.cycles"));
  metric("decode_fail", rt.metrics().total("wire.decode_fail"));
  metric("injected_drops", rt.injected_drops());
  metric("header_bytes", rt.header_bytes());
  metric("tx_datagrams", rt.tx_datagrams());
  metric("tx_frames", rt.tx_frames());
  metric("tx_syscalls", rt.tx_syscalls());
  metric("rx_syscalls", rt.rx_syscalls());
  metric("bytes_delta_saved", rt.metrics().total("wire.bytes_delta_saved"));
  w = w && net::write_line(res, "done");
  net::exit_child(w ? 0 : 4);
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

void close_child_endpoints(ChildProc& k) {
  net::close_fd(k.sock);
  net::close_fd(k.ctl.read_fd);
  net::close_fd(k.ctl.write_fd);
  net::close_fd(k.res.read_fd);
  net::close_fd(k.res.write_fd);
  k.sock = k.ctl.read_fd = k.ctl.write_fd = k.res.read_fd = k.res.write_fd = -1;
}

BackendRun fail_deployment(BackendRun run, const std::string& why,
                           std::vector<ChildProc>& kids) {
  run.ok = false;
  run.error = why;
  for (auto& k : kids) {
    if (k.pid > 0) {
      net::kill_child(k.pid);
      net::wait_child(k.pid);
      k.pid = -1;
    }
    close_child_endpoints(k);
  }
  return run;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario plan
// ---------------------------------------------------------------------------

std::vector<Point> deployment_points(const DeployConfig& cfg) {
  Rng rng(cfg.seed ^ kPointStream);
  auto gen = uniform_points(cfg.space, 0, 80);
  std::vector<Point> points;
  points.reserve(total_nodes(cfg));
  for (std::size_t i = 0; i < total_nodes(cfg); ++i) points.push_back(gen(rng));
  return points;
}

std::vector<QueryPlan> deployment_queries(const DeployConfig& cfg) {
  Rng rng(cfg.seed ^ kQueryStream);
  std::vector<QueryPlan> plans;
  plans.reserve(cfg.queries);
  for (std::size_t i = 0; i < cfg.queries; ++i) {
    QueryPlan p;
    p.query = best_case_query(cfg.space, cfg.selectivity, rng);
    p.origin = static_cast<NodeId>(rng.below(total_nodes(cfg)));
    plans.push_back(std::move(p));
  }
  return plans;
}

std::vector<std::vector<NodeId>> deployment_ground_truth(const DeployConfig& cfg) {
  const auto points = deployment_points(cfg);
  const auto plans = deployment_queries(cfg);
  std::vector<std::vector<NodeId>> truth(plans.size());
  for (std::size_t q = 0; q < plans.size(); ++q) {
    for (std::size_t i = 0; i < points.size(); ++i)
      if (plans[q].query.matches(points[i]))
        truth[q].push_back(static_cast<NodeId>(i));
  }
  return truth;
}

double BackendRun::bytes_per_node_cycle() const {
  if (gossip_cycles == 0) return 0.0;
  std::uint64_t bytes = 0;
  for (const auto& [type, tc] : traffic)
    if (gossip_type(type)) bytes += tc.bytes;
  return static_cast<double>(bytes) / static_cast<double>(gossip_cycles);
}

double BackendRun::frames_per_datagram() const {
  if (tx_datagrams == 0) return 0.0;
  return static_cast<double>(tx_frames) / static_cast<double>(tx_datagrams);
}

std::size_t mismatches(const BackendRun& run,
                       const std::vector<std::vector<NodeId>>& truth) {
  std::size_t bad = 0;
  for (std::size_t q = 0; q < truth.size(); ++q) {
    if (q >= run.queries.size() || !run.queries[q].completed ||
        run.queries[q].matches != truth[q])
      ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

BackendRun run_deployment(const DeployConfig& cfg) {
  BackendRun run;
  run.backend = "udp";
  const std::size_t P = cfg.processes;
  assert(P >= 1 && cfg.nodes_per_proc >= 1);

  const auto points = deployment_points(cfg);
  const auto plans = deployment_queries(cfg);
  run.queries.resize(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    run.queries[i].index = i;
    run.queries[i].origin = plans[i].origin;
  }

  net::ignore_sigpipe();

  std::vector<ChildProc> kids(P);
  net::AddressBook book;
  for (std::size_t p = 0; p < P; ++p) {
    kids[p].sock = net::udp_bind_loopback();
    if (kids[p].sock < 0)
      return fail_deployment(std::move(run), "socket bind failed", kids);
    net::set_recv_buffer(kids[p].sock, 1 << 20);
    const std::uint16_t port = net::local_port(kids[p].sock);
    if (port == 0) return fail_deployment(std::move(run), "local_port failed", kids);
    for (std::size_t i = 0; i < cfg.nodes_per_proc; ++i)
      book.set(static_cast<NodeId>(p * cfg.nodes_per_proc + i), {0x7F000001, port});
    if (!net::make_pipe(kids[p].ctl) || !net::make_pipe(kids[p].res))
      return fail_deployment(std::move(run), "pipe failed", kids);
  }

  for (std::size_t p = 0; p < P; ++p) {
    const int pid = net::fork_child();
    if (pid < 0) return fail_deployment(std::move(run), "fork failed", kids);
    if (pid == 0) run_child(cfg, p, kids, book, points, plans);  // never returns
    kids[p].pid = pid;
    // The child owns these now.
    net::close_fd(kids[p].sock);
    net::close_fd(kids[p].ctl.read_fd);
    net::close_fd(kids[p].res.write_fd);
    kids[p].sock = kids[p].ctl.read_fd = kids[p].res.write_fd = -1;
  }

  std::string line;
  for (std::size_t p = 0; p < P; ++p) {
    if (!net::read_line(kids[p].res.read_fd, line, 30000) || line != "ready")
      return fail_deployment(std::move(run), "child never became ready", kids);
  }
  for (std::size_t p = 0; p < P; ++p) {
    if (!net::write_line(kids[p].ctl.write_fd, "go"))
      return fail_deployment(std::move(run), "go handshake failed", kids);
  }

  // Per-line budget: the whole run window plus generous slack (children
  // only write after their window closes).
  const int report_ms = static_cast<int>(wall_window(cfg) / 1000) + 60000;
  for (std::size_t p = 0; p < P; ++p) {
    while (true) {
      if (!net::read_line(kids[p].res.read_fd, line, report_ms))
        return fail_deployment(std::move(run), "child report timed out", kids);
      if (line == "done") break;
      std::istringstream is(line);
      std::string kind;
      is >> kind;
      if (kind == "query") {
        std::size_t idx = 0;
        NodeId origin = kInvalidNode;
        int completed = 0;
        std::string csv;
        is >> idx >> origin >> completed >> csv;
        if (is.fail() || idx >= run.queries.size())
          return fail_deployment(std::move(run), "malformed query report", kids);
        QueryRecord& rec = run.queries[idx];
        rec.completed = completed != 0;
        rec.matches.clear();
        if (csv != "-") {
          std::istringstream ms(csv);
          std::string tok;
          while (std::getline(ms, tok, ','))
            rec.matches.push_back(static_cast<NodeId>(std::stoul(tok)));
        }
      } else if (kind == "traffic") {
        std::string type;
        std::uint64_t count = 0, bytes = 0;
        is >> type >> count >> bytes;
        if (is.fail())
          return fail_deployment(std::move(run), "malformed traffic report", kids);
        auto& tc = run.traffic[type];
        tc.count += count;
        tc.bytes += bytes;
      } else if (kind == "metric") {
        std::string name;
        std::uint64_t v = 0;
        is >> name >> v;
        if (is.fail())
          return fail_deployment(std::move(run), "malformed metric report", kids);
        if (name == "gossip_cycles") run.gossip_cycles += v;
        else if (name == "decode_fail") run.decode_fail += v;
        else if (name == "injected_drops") run.injected_drops += v;
        else if (name == "header_bytes") run.header_bytes += v;
        else if (name == "tx_datagrams") run.tx_datagrams += v;
        else if (name == "tx_frames") run.tx_frames += v;
        else if (name == "tx_syscalls") run.tx_syscalls += v;
        else if (name == "rx_syscalls") run.rx_syscalls += v;
        else if (name == "bytes_delta_saved") run.bytes_delta_saved += v;
      } else {
        return fail_deployment(std::move(run), "unknown report line: " + line, kids);
      }
    }
  }

  for (std::size_t p = 0; p < P; ++p) {
    const int code = net::wait_child(kids[p].pid);
    kids[p].pid = -1;
    close_child_endpoints(kids[p]);
    if (code != 0) {
      std::ostringstream os;
      os << "child " << p << " exited with code " << code;
      return fail_deployment(std::move(run), os.str(), kids);
    }
  }
  run.ok = true;
  return run;
}

BackendRun run_sim_mirror(const DeployConfig& cfg) {
  BackendRun run;
  run.backend = "sim";
  const auto points = deployment_points(cfg);
  const auto plans = deployment_queries(cfg);

  Grid::Config gc{cfg.space};
  gc.nodes = total_nodes(cfg);
  gc.protocol = deployment_protocol(cfg);
  gc.oracle = true;
  gc.latency = "lan";
  gc.seed = cfg.seed;
  gc.bootstrap_contacts = cfg.introducers;
  gc.oracle_options = cfg.oracle;
  gc.track_visited = false;

  // Serve the shared point plan verbatim; the generator's Rng draw is
  // deliberately unused so node i gets points[i] in both backends.
  Grid grid(gc, [points, next = std::size_t{0}](Rng&) mutable {
    return points[next++];
  });

  grid.sim().run_until(static_cast<SimTime>(cfg.warmup_cycles) * cfg.gossip_period);

  run.queries.resize(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    QueryRecord& rec = run.queries[i];
    rec.index = i;
    rec.origin = plans[i].origin;
    auto out = grid.run_query(plans[i].origin, plans[i].query, kNoSigma);
    rec.completed = out.completed;
    for (const auto& m : out.matches) rec.matches.push_back(m.id);
    std::sort(rec.matches.begin(), rec.matches.end());
  }

  for (const auto& [type, tc] : grid.net().stats().sent_by_type())
    run.traffic[type] = tc;
  run.gossip_cycles = grid.net().metrics().total("gossip.cycles");
  run.decode_fail = grid.net().metrics().total("wire.decode_fail");
  run.bytes_delta_saved = grid.net().metrics().total("wire.bytes_delta_saved");
  run.ok = true;
  return run;
}

}  // namespace ares
