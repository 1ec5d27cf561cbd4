/// Live-wire conformance: the same Grid scenario executed twice — once on
/// the discrete-event simulator, once as real OS processes exchanging UDP
/// datagrams over loopback (exp/deploy.h) — must agree with ground truth on
/// every query (0 mismatches) and both meet the paper's ~2,560
/// bytes/node/cycle overlay budget (§6 prose; see check_gossip_budget in
/// bench_common.h for the two gates). The codec registry is
/// the only serialization path, so any divergence is a real protocol or
/// transport bug, not a measurement artifact.
///
/// Knobs: ARES_PROCS, ARES_NODES_PER_PROC, ARES_QUERIES, ARES_CYCLES
/// (warmup gossip cycles), ARES_PERIOD_MS, ARES_F, ARES_SEED, and fault
/// injection via ARES_LOSS / ARES_LAT_MIN_MS / ARES_LAT_MAX_MS (loss skips
/// the recall gate — losing query traffic is the point — but must produce
/// injected drops).

#include "bench_common.h"

#include "exp/deploy.h"
#include "net/process.h"

namespace {

using namespace ares;
using namespace ares::bench;

void report_backend(exp::BenchReport& report, const BackendRun& run) {
  for (const auto& [type, tc] : run.traffic) {
    report.point()
        .str("backend", run.backend)
        .str("type", type)
        .num("count", tc.count)
        .num("bytes", tc.bytes);
  }
}

}  // namespace

int main() {
  exp::print_experiment_header(
      "Live-wire conformance (net runtime backend)",
      "simulator vs real processes over loopback UDP",
      "identical recall vs ground truth on both backends, overlay traffic "
      "under the ~2,560 bytes/node/cycle budget");

  DeployConfig cfg;
  cfg.processes = option_u64("PROCS", 8);
  cfg.nodes_per_proc = option_u64("NODES_PER_PROC", 4);
  cfg.queries = option_u64("QUERIES", 8);
  cfg.selectivity = option_double("F", 0.125);
  cfg.seed = option_u64("SEED", 1);
  cfg.warmup_cycles = option_u64("CYCLES", 6);
  cfg.gossip_period =
      static_cast<SimTime>(option_double("PERIOD_MS", 100.0) * 1000.0);
  cfg.query_spacing = cfg.gossip_period;
  cfg.faults.loss = option_double("LOSS", 0.0);
  cfg.faults.delay_min =
      static_cast<SimTime>(option_double("LAT_MIN_MS", 0.0) * 1000.0);
  cfg.faults.delay_max =
      static_cast<SimTime>(option_double("LAT_MAX_MS", 0.0) * 1000.0);

  std::cout << "processes=" << cfg.processes
            << " nodes/proc=" << cfg.nodes_per_proc
            << " nodes=" << cfg.processes * cfg.nodes_per_proc
            << " queries=" << cfg.queries << " warmup=" << cfg.warmup_cycles
            << " period=" << cfg.gossip_period / kMillisecond << "ms"
            << " loss=" << cfg.faults.loss
            << " delay=[" << cfg.faults.delay_min / kMillisecond << ","
            << cfg.faults.delay_max / kMillisecond << "]ms\n\n";

  exp::BenchReport report("net_deploy");
  report.set_threads(1);
  report.set_backend("udp");
  report.set_processes(cfg.processes);
  report.set_fault_injection(
      cfg.faults.loss,
      static_cast<double>(cfg.faults.delay_min) / kMillisecond,
      static_cast<double>(cfg.faults.delay_max) / kMillisecond);

  const auto truth = deployment_ground_truth(cfg);

  const BackendRun udp = run_deployment(cfg);
  if (!udp.ok) {
    std::cerr << "FAIL: deployment did not complete: " << udp.error << "\n";
    return 1;
  }
  const BackendRun sim = run_sim_mirror(cfg);
  if (!sim.ok) {
    std::cerr << "FAIL: sim mirror did not complete: " << sim.error << "\n";
    return 1;
  }

  const std::size_t udp_bad = mismatches(udp, truth);
  const std::size_t sim_bad = mismatches(sim, truth);
  const double udp_bpc = udp.bytes_per_node_cycle();
  const double sim_bpc = sim.bytes_per_node_cycle();

  exp::Table t({"backend", "queries", "mismatches", "node-cycles",
                "bytes/node/cycle", "injected drops", "decode fails"});
  t.row({"sim", std::to_string(sim.queries.size()), std::to_string(sim_bad),
         std::to_string(sim.gossip_cycles), exp::fmt(sim_bpc), "-",
         std::to_string(sim.decode_fail)});
  t.row({"udp", std::to_string(udp.queries.size()), std::to_string(udp_bad),
         std::to_string(udp.gossip_cycles), exp::fmt(udp_bpc),
         std::to_string(udp.injected_drops), std::to_string(udp.decode_fail)});
  t.print();
  std::cout << "datagram header overhead: " << udp.header_bytes
            << " bytes (excluded from frame accounting)\n";
  const double fpd = udp.frames_per_datagram();
  const double cycles_d = std::max<double>(static_cast<double>(udp.gossip_cycles), 1.0);
  std::cout << "datagrams: " << udp.tx_datagrams << " carrying "
            << udp.tx_frames << " frames (" << exp::fmt(fpd)
            << " frames/datagram), syscalls: tx=" << udp.tx_syscalls
            << " rx=" << udp.rx_syscalls << " ("
            << exp::fmt(static_cast<double>(udp.tx_syscalls + udp.rx_syscalls) /
                        cycles_d)
            << " syscalls/node-cycle)\n";
  std::cout << "paper layout: sim saved " << sim.bytes_delta_saved
            << " bytes, udp saved " << udp.bytes_delta_saved << " bytes\n";

  std::uint64_t udp_msgs = 0;
  for (const auto& [type, tc] : udp.traffic) udp_msgs += tc.count;
  report.add_ops(udp_msgs);
  report_backend(report, sim);
  report_backend(report, udp);
  report.summary()
      .num("sim_mismatches", static_cast<std::uint64_t>(sim_bad))
      .num("udp_mismatches", static_cast<std::uint64_t>(udp_bad))
      .num("sim_bytes_per_node_cycle", sim_bpc)
      .num("udp_bytes_per_node_cycle", udp_bpc)
      .num("udp_gossip_cycles", udp.gossip_cycles)
      .num("udp_injected_drops", udp.injected_drops)
      .num("udp_decode_fail", udp.decode_fail)
      .num("udp_header_bytes", udp.header_bytes)
      .num("udp_tx_datagrams", udp.tx_datagrams)
      .num("udp_tx_frames", udp.tx_frames)
      .num("udp_frames_per_datagram", fpd)
      .num("udp_tx_syscalls", udp.tx_syscalls)
      .num("udp_rx_syscalls", udp.rx_syscalls)
      .num("sim_bytes_delta_saved", sim.bytes_delta_saved)
      .num("udp_bytes_delta_saved", udp.bytes_delta_saved);
  report.write();

  bool ok = true;
  const bool lossless = cfg.faults.loss == 0.0;
  if (lossless) {
    if (udp_bad != 0 || sim_bad != 0) {
      std::cerr << "FAIL: recall mismatches vs ground truth (sim=" << sim_bad
                << ", udp=" << udp_bad << ")\n";
      ok = false;
    } else {
      std::cout << "recall check: 0 mismatches on both backends OK\n";
    }
  } else {
    if (udp.injected_drops == 0) {
      std::cerr << "FAIL: loss=" << cfg.faults.loss
                << " injected but no datagrams were dropped\n";
      ok = false;
    } else {
      std::cout << "fault check: " << udp.injected_drops
                << " injected drops (recall gate skipped under loss)\n";
    }
  }
  // Budget gates, same as bench/gossip_cost (frames are counted at send
  // time, so injected loss does not perturb them).
  if (cfg.space.dimensions() == 5) {
    for (const BackendRun* run : {&sim, &udp}) {
      const double bpc = run->bytes_per_node_cycle();
      const double saved =
          static_cast<double>(run->bytes_delta_saved) /
          std::max<double>(static_cast<double>(run->gossip_cycles), 1.0);
      if (!check_gossip_budget(" (" + run->backend + ")", bpc, bpc + saved))
        ok = false;
    }
  }
  // Coalescing gate: outside delay injection, gossip fan-out must pack more
  // than one frame per datagram and — when the platform batches sends —
  // fewer kernel entries than datagrams. Injected delays spread release
  // times, so delayed frames share a datagram only by chance.
  if (cfg.faults.delay_max == 0) {
    if (fpd <= 1.0) {
      std::cerr << "FAIL: frames/datagram " << fpd
                << " <= 1 — payload coalescing is not engaging\n";
      ok = false;
    } else {
      std::cout << "coalescing check: " << exp::fmt(fpd)
                << " frames/datagram OK\n";
    }
    if (net::have_sendmmsg() && udp.tx_syscalls >= udp.tx_datagrams) {
      std::cerr << "FAIL: tx syscalls " << udp.tx_syscalls
                << " >= datagrams " << udp.tx_datagrams
                << " — sendmmsg batching is not engaging\n";
      ok = false;
    } else if (net::have_sendmmsg()) {
      std::cout << "syscall check: " << udp.tx_syscalls << " tx syscalls for "
                << udp.tx_datagrams << " datagrams OK\n";
    }
  }
  return ok ? 0 : 1;
}
