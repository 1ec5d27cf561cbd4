/// §6 (prose): overlay-maintenance cost. The paper estimates each node
/// initiates exactly two gossips per cycle (one per layer) and receives on
/// average two, with ~320-byte messages: ~2,560 bytes/node/cycle — deemed
/// negligible. This bench measures the actual traffic of our gossip stack.

#include "bench_common.h"

namespace {

using namespace ares;
using namespace ares::bench;

struct TypeRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

struct RunResult {
  std::vector<TypeRow> rows;
  std::uint64_t delta_saved = 0;  // wire.bytes_delta_saved total
  SimTotals totals;
};

}  // namespace

int main() {
  exp::print_experiment_header(
      "Gossip cost (paper §6, prose)", "overlay maintenance traffic",
      "~4 gossip messages initiated+received per node per 10 s cycle, "
      "~2,560 bytes/node/cycle, independent of query load");

  Setup s = read_setup(500);
  print_setup(s);
  const double cycles = option_double("CYCLES", 60);

  exp::BenchReport report("gossip_cost");
  report.set_threads(1);  // single trial; nothing to fan out
  report.set_shards(s.shards);

  const std::vector<int> one{0};
  auto results = exp::run_trials(one, [&](int, std::size_t) {
    auto grid = make_gossip_grid(s, from_seconds(10.0 * cycles), "lan",
                                 /*track_visited=*/false);
    RunResult out;
    for (const auto& [name, tc] : grid->net().stats().sent_by_type()) {
      if (!name.starts_with("cyclon.") && !name.starts_with("vicinity."))
        continue;
      out.rows.push_back({name, tc.count, tc.bytes});
    }
    out.delta_saved = grid->net().metrics().total("wire.bytes_delta_saved");
    out.totals = totals_of(*grid);
    return out;
  });
  const RunResult& r = results[0];
  report.add_events(r.totals.events, r.totals.late);

  exp::Table t({"message type", "count", "bytes", "msgs/node/cycle",
                "bytes/node/cycle"});
  std::uint64_t total_msgs = 0, total_bytes = 0;
  const double denom = static_cast<double>(s.n) * cycles;
  for (const auto& row : r.rows) {
    total_msgs += row.count;
    total_bytes += row.bytes;
    t.row({row.name, std::to_string(row.count), std::to_string(row.bytes),
           exp::fmt(static_cast<double>(row.count) / denom),
           exp::fmt(static_cast<double>(row.bytes) / denom)});
    report.point()
        .str("type", row.name)
        .num("count", row.count)
        .num("bytes", row.bytes);
  }
  t.row({"TOTAL", std::to_string(total_msgs), std::to_string(total_bytes),
         exp::fmt(static_cast<double>(total_msgs) / denom),
         exp::fmt(static_cast<double>(total_bytes) / denom)});
  t.print();
  std::cout << "paper's estimate: ~2,560 bytes/node/cycle (320 B messages, "
               "4 per cycle)\n";
  const double per_node_cycle = static_cast<double>(total_bytes) / denom;
  // The type counters measure the delta-coded frames actually sent; the
  // paper's plain layout = sent + bytes_delta_saved.
  const double paper_per_node_cycle =
      static_cast<double>(total_bytes + r.delta_saved) / denom;
  std::cout << "paper layout: " << exp::fmt(paper_per_node_cycle)
            << " bytes/node/cycle (" << r.delta_saved << " bytes saved)\n";
  report.summary()
      .num("total_gossip_msgs", total_msgs)
      .num("total_gossip_bytes", total_bytes)
      .num("bytes_per_node_cycle", per_node_cycle)
      .num("bytes_delta_saved", r.delta_saved)
      .num("uncompressed_bytes_per_node_cycle", paper_per_node_cycle);
  report.write();

  // Budget gates at the paper's defaults (d=5). Bytes are codec-measured
  // (Message::wire_size() == encoded frame length), so this guards the wire
  // format itself against silent size drift.
  if (s.dims == 5 && !check_gossip_budget("", per_node_cycle, paper_per_node_cycle))
    return 1;
  return 0;
}
