/// decentralized_scheduler: a toy decentralized job-execution layer on top
/// of the resource-selection service — the paper's §7 future-work direction
/// ("resource selection is just the first step towards a complete
/// decentralized job execution system").
///
/// Every job enters at a random node (no central scheduler exists). The
/// entry node uses the selection service to find sigma candidate machines
/// whose attributes match the job, claims free slots via each machine's
/// dynamic "free slots" attribute, runs the job for its duration, and
/// releases the slots; a job that finds too few free slots retries from the
/// same entry node. We measure placement success and queue behavior under
/// contention.

#include <deque>
#include <iostream>

#include "exp/grid.h"
#include "workload/distributions.h"

namespace {

using namespace ares;

struct Job {
  int id;
  RangeQuery requirements;
  std::uint32_t tasks;      // machines needed
  SimTime duration;
};

class Scheduler {
 public:
  Scheduler(Grid& grid, int max_retries) : grid_(grid), max_retries_(max_retries) {}

  void submit(const Job& job) { try_place(job, 0, grid_.random_node()); }

  int placed = 0, failed = 0, retried = 0;

 private:
  void try_place(const Job& job, int attempt, NodeId entry) {
    // Ask the overlay for more candidates than tasks: some may be claimed
    // concurrently by other entry nodes (no coordination!). The callback
    // takes a copy of the job: argument evaluation order is unspecified, so
    // a job moved into it could be emptied before submit() reads
    // job.requirements.
    std::uint32_t want = job.tasks * 2;
    grid_.node(entry).submit(
        job.requirements, want,
        [this, job, attempt, entry](const std::vector<MatchRecord>& found) {
          claim(job, attempt, entry, found);
        });
  }

  // Runs inside the entry node's query callback, so its follow-ups are
  // timers on that node: coordinator events (Simulator::schedule_at) may
  // only be scheduled from outside node code.
  void claim(const Job& job, int attempt, NodeId entry,
             const std::vector<MatchRecord>& found) {
    std::vector<NodeId> claimed;
    for (const auto& m : found) {
      if (claimed.size() >= job.tasks) break;
      if (!grid_.net().alive(m.id)) continue;
      auto& node = grid_.node(m.id);
      auto dyn = node.dynamic_values();
      if (dyn.empty() || dyn[0] == 0) continue;  // no free slot anymore
      --dyn[0];
      node.set_dynamic_values(dyn);
      claimed.push_back(m.id);
    }
    if (claimed.size() < job.tasks) {
      // Roll back and retry (resources were contended or churned away).
      for (NodeId id : claimed) release(id);
      if (attempt < max_retries_) {
        ++retried;
        grid_.net().node_timer(entry, 5 * kSecond, [this, job, attempt, entry] {
          try_place(job, attempt + 1, entry);
        });
      } else {
        ++failed;
      }
      return;
    }
    ++placed;
    // Run the job: release slots when it finishes.
    grid_.net().node_timer(entry, job.duration, [this, claimed] {
      for (NodeId id : claimed) release(id);
    });
  }

  void release(NodeId id) {
    if (!grid_.net().alive(id)) return;
    auto& node = grid_.node(id);
    auto dyn = node.dynamic_values();
    if (!dyn.empty()) {
      ++dyn[0];
      node.set_dynamic_values(dyn);
    }
  }

  Grid& grid_;
  int max_retries_;
};

}  // namespace

int main() {
  using namespace ares;

  auto space = AttributeSpace::uniform(3, 3, 0, 80);
  Grid::Config cfg{.space = space};
  cfg.nodes = 400;
  cfg.oracle = true;
  cfg.latency = "wan";
  cfg.seed = 17;
  cfg.protocol.gossip_enabled = false;
  Grid grid(cfg, uniform_points(space, 0, 80));

  // Each machine starts with 2 free execution slots (dynamic attribute 0),
  // checked at query time via a dynamic filter — never routed on.
  for (NodeId id : grid.node_ids()) grid.node(id).set_dynamic_values({2});

  Scheduler sched(grid, /*max_retries=*/3);

  // A burst of 60 jobs with mixed requirement profiles.
  Rng rng(4);
  int next_id = 0;
  for (int i = 0; i < 60; ++i) {
    Job job;
    job.id = next_id++;
    job.tasks = 2 + static_cast<std::uint32_t>(rng.below(5));
    job.duration = from_seconds(60.0 + 240.0 * rng.uniform());
    job.requirements = RangeQuery::any(3)
                           .with(0, rng.range(0, 40), std::nullopt)
                           .with_dynamic(0, 1, std::nullopt);  // >=1 free slot
    // Stagger arrivals over 10 minutes.
    SimTime at = from_seconds(rng.uniform() * 600.0);
    grid.sim().schedule_at(at, [&sched, job] { sched.submit(job); });
  }

  grid.sim().run_until(3600 * kSecond);

  std::cout << "decentralized scheduler results over 60 jobs on 400 machines\n"
            << "  placed:  " << sched.placed << "\n"
            << "  retried: " << sched.retried << " (contention resolved by retry)\n"
            << "  failed:  " << sched.failed << "\n";
  std::uint64_t busy = 0;
  for (NodeId id : grid.node_ids())
    if (grid.node(id).dynamic_values()[0] < 2) ++busy;
  std::cout << "  machines still busy at the horizon: " << busy
            << " (jobs all finished: " << (busy == 0 ? "yes" : "no") << ")\n";
  return sched.placed > 0 && sched.failed == 0 ? 0 : 1;
}
