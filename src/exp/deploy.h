#pragma once

/// \file deploy.h
/// Multi-process deployment driver: runs the protocol as real OS processes
/// exchanging UDP datagrams over loopback, and the matching simulator
/// mirror of the same scenario — the live-wire conformance harness.
///
/// The coordinator pre-binds one loopback socket per process, builds the
/// complete NodeId -> address book, then forks: child p inherits its socket
/// (no discovery protocol needed), hosts nodes [p*nodes_per_proc,
/// (p+1)*nodes_per_proc), and drives a UdpRuntime event loop through warmup
/// gossip cycles, the query schedule, and a drain window. Every input a
/// child needs — node points, the query plan, introducers, the oracle
/// overlay — is a pure function of DeployConfig, recomputed identically in
/// every process; the pipes carry only "ready"/"go" handshakes and the
/// result report.
///
/// run_sim_mirror() executes the same scenario (same points, same queries,
/// same origins, same protocol config) on the discrete-event backend.
/// Because both backends serialize through the one codec registry and meter
/// through the same NetworkStats, conformance reduces to comparing
/// BackendRuns: per-query match sets against ground truth, and gossip
/// bytes-per-node-per-cycle against the paper's budget (bench/net_deploy).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/bootstrap.h"
#include "net/udp_runtime.h"
#include "runtime/traffic.h"
#include "space/attribute_space.h"
#include "space/query.h"

namespace ares {

struct DeployConfig {
  AttributeSpace space = AttributeSpace::uniform(5, 3, 0, 80);
  std::size_t processes = 4;
  std::size_t nodes_per_proc = 4;
  std::size_t queries = 8;
  double selectivity = 0.125;
  std::uint64_t seed = 1;
  /// Gossip period — wall-clock microseconds in the processes, simulated
  /// microseconds in the mirror. Compressed by default (the paper's 10 s
  /// period would make a CI run glacial; per-cycle byte cost is
  /// period-independent).
  SimTime gossip_period = 120 * kMillisecond;
  std::size_t warmup_cycles = 8;
  SimTime query_spacing = 120 * kMillisecond;
  /// Extra time after the last query submission before children stop.
  SimTime drain = 2 * kSecond;
  /// ProtocolConfig::query_timeout in both backends (0 disables).
  SimTime query_timeout = 2 * kSecond;
  std::size_t introducers = 5;
  net::FaultInjection faults;
  OracleOptions oracle{};
};

/// One query's outcome as seen by its originating node.
struct QueryRecord {
  std::size_t index = 0;
  NodeId origin = kInvalidNode;
  bool completed = false;
  std::vector<NodeId> matches;  // sorted ascending
};

/// The comparable outcome of one backend executing the scenario.
struct BackendRun {
  bool ok = false;
  std::string backend;  // "sim" or "udp"
  std::string error;    // when !ok
  std::vector<QueryRecord> queries;  // indexed by query index
  std::map<std::string, NetworkStats::TypeCounter, std::less<>> traffic;
  std::uint64_t gossip_cycles = 0;   // sum over nodes (node-cycles)
  std::uint64_t decode_fail = 0;     // wire.decode_fail total
  std::uint64_t injected_drops = 0;  // udp only
  std::uint64_t header_bytes = 0;    // udp only (datagram + sub-frame headers)
  std::uint64_t tx_datagrams = 0;    // udp only
  std::uint64_t tx_frames = 0;       // udp only (frames handed to the socket)
  std::uint64_t tx_syscalls = 0;     // udp only (send-side kernel entries)
  std::uint64_t rx_syscalls = 0;     // udp only (recv-side kernel entries)
  /// wire.bytes_delta_saved total: the paper's plain descriptor-list layout
  /// minus the delta-coded frames sent. Both backends fill this.
  std::uint64_t bytes_delta_saved = 0;

  /// Gossip traffic (cyclon.* + vicinity.* frame bytes) per node-cycle —
  /// the figure gossip_cost gates against the paper's ~2,560 B budget.
  /// Counts the delta-coded bytes as sent.
  double bytes_per_node_cycle() const;

  /// Average protocol frames per transmitted datagram (udp only; 1.0 when
  /// nothing coalesced, 0 when nothing was sent).
  double frames_per_datagram() const;
};

/// One planned query: what to ask and which node originates it.
struct QueryPlan {
  RangeQuery query;
  NodeId origin = kInvalidNode;
};

/// The scenario inputs, derived deterministically from the config alone —
/// parent, children, and the sim mirror all recompute identical values.
std::vector<Point> deployment_points(const DeployConfig& cfg);
std::vector<QueryPlan> deployment_queries(const DeployConfig& cfg);

/// Exact match set per planned query, straight from the point set.
std::vector<std::vector<NodeId>> deployment_ground_truth(const DeployConfig& cfg);

/// Forks `processes` children and runs the scenario over loopback UDP.
/// BackendRun::ok is false (with error set) when a child fails, hangs, or
/// exits nonzero.
BackendRun run_deployment(const DeployConfig& cfg);

/// The same scenario on the discrete-event simulator (oracle bootstrap +
/// live gossip, LAN latency, one simulator shard).
BackendRun run_sim_mirror(const DeployConfig& cfg);

/// Number of queries whose outcome disagrees with ground truth (incomplete,
/// or a match set differing from the exact one). 0 = perfect recall.
std::size_t mismatches(const BackendRun& run,
                       const std::vector<std::vector<NodeId>>& truth);

}  // namespace ares
