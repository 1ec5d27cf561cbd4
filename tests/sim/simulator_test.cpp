#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace ares {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(5 * kSecond, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5 * kSecond);
  EXPECT_EQ(sim.now(), 5 * kSecond);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime t2 = -1;
  sim.schedule_at(10, [&] { sim.schedule_after(5, [&] { t2 = sim.now(); }); });
  sim.run();
  EXPECT_EQ(t2, 15);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(100, [&] { sim.schedule_at(1, [&] { ran = true; }); });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, NegativeDelayClamps) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(-50, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(10, [&] { ++count; });
  sim.schedule_at(20, [&] { ++count; });
  sim.schedule_at(30, [&] { ++count; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(55), 0u);
  EXPECT_EQ(sim.now(), 55);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, LateEventsCountedWhenClampedOtherwiseNot) {
  Simulator sim;
  EXPECT_EQ(sim.late_events(), 0u);
  sim.schedule_at(100, [&] {
    sim.schedule_at(1, [] {});   // in the past: clamped and counted
    sim.schedule_at(100, [] {}); // exactly now: on time
    sim.schedule_at(200, [] {}); // future: on time
    sim.schedule_after(-5, [] {}); // negative delay clamps pre-call: on time
  });
  sim.run();
  EXPECT_EQ(sim.late_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, ExecutedEventCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 7u);
}

TEST(Simulator, CoordinatorEventsRunFirstInTheirWindow) {
  // Windows of Δ=10: [0,10) holds node event 3; [10,20) node event 15;
  // [20,30) the coordinator event at 27, which runs before node event 25.
  for (std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    Simulator sim(1, shards, /*window=*/10);
    sim.set_node_shard(0, 0);
    std::vector<SimTime> order;
    for (SimTime t : {25, 3, 15})
      sim.schedule(0, sim.alloc_key(0), t, [&order, t] { order.push_back(t); });
    sim.schedule_at(27, [&] { order.push_back(27); });
    EXPECT_EQ(sim.run(), 4u);
    EXPECT_EQ(order, (std::vector<SimTime>{3, 15, 27, 25}));
    EXPECT_EQ(sim.now(), 29);  // the end of the last window drained
  }
}

// Node code schedules through node timers; a coordinator event added from
// inside a drain would run out of window order, so it aborts in every build.
void schedule_coordinator_event_from_node_code(std::uint32_t shards) {
  Simulator sim(1, shards);
  sim.set_node_shard(0, 0);
  sim.schedule(0, sim.alloc_key(0), 5, [&sim] { sim.schedule_after(1, [] {}); });
  sim.run();
}

TEST(SimulatorDeathTest, CoordinatorSchedulingInsideADrainAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    EXPECT_DEATH(schedule_coordinator_event_from_node_code(shards),
                 "schedule_at/schedule_after called from node code");
  }
}

TEST(Simulator, RngIsSeeded) {
  Simulator a(123), b(123), c(456);
  EXPECT_EQ(a.rng().next(), b.rng().next());
  EXPECT_NE(a.rng().next(), c.rng().next());
}

}  // namespace
}  // namespace ares
