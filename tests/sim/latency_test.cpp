#include "sim/latency.h"

#include <gtest/gtest.h>

namespace ares {
namespace {

TEST(Latency, ConstantModel) {
  ConstantLatency m(42);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.sample(rng, 0, 1), 42);
}

TEST(Latency, UniformBounds) {
  UniformLatency m(10, 20);
  Rng rng(2);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    SimTime t = m.sample(rng, 0, 1);
    ASSERT_GE(t, 10);
    ASSERT_LE(t, 20);
    lo = lo || t == 10;
    hi = hi || t == 20;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Latency, LanFasterThanWan) {
  auto lan = make_lan_latency();
  auto wan = make_wan_latency();
  Rng rng(3);
  for (int i = 0; i < 100; ++i)
    EXPECT_LT(lan->sample(rng, 0, 1), wan->sample(rng, 0, 1));
}

TEST(Latency, CoordinatePairStable) {
  CoordinateLatency m(10 * kMillisecond, 100 * kMillisecond, 0, /*seed=*/7);
  Rng rng(4);
  SimTime first = m.sample(rng, 3, 9);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(m.sample(rng, 3, 9), first);
  // Symmetric without jitter.
  EXPECT_EQ(m.sample(rng, 9, 3), first);
}

TEST(Latency, CoordinateHeterogeneousAcrossPairs) {
  CoordinateLatency m(10 * kMillisecond, 100 * kMillisecond, 0, 7);
  Rng rng(5);
  SimTime a = m.sample(rng, 0, 1);
  SimTime b = m.sample(rng, 0, 2);
  SimTime c = m.sample(rng, 5, 6);
  // At least two of the three pairs should differ (virtually certain).
  EXPECT_TRUE(a != b || b != c);
}

TEST(Latency, CoordinateRespectsBase) {
  CoordinateLatency m(20 * kMillisecond, 100 * kMillisecond, 5 * kMillisecond, 7);
  Rng rng(6);
  for (NodeId i = 0; i < 20; ++i)
    EXPECT_GE(m.sample(rng, i, i + 1), 20 * kMillisecond);
}

TEST(Latency, PlanetlabPairStableAcrossCallsAndInstances) {
  // With the jitter stream fixed, a sample differs only in base + distance,
  // and node coordinates are a pure function of (seed, id): the visiting
  // order and the model instance must not matter.
  auto draw = [](LatencyModel& m, NodeId from, NodeId to) {
    Rng jitter(99);
    return m.sample(jitter, from, to);
  };
  auto a = make_planetlab_latency(11);
  auto b = make_planetlab_latency(11);
  const SimTime first = draw(*a, 3, 700);
  for (NodeId i = 0; i < 50; ++i) draw(*a, i, 1000 - i);
  EXPECT_EQ(draw(*a, 3, 700), first);
  EXPECT_EQ(draw(*b, 3, 700), first);
}

TEST(Latency, PlanetlabFactoryInRealisticRange) {
  auto m = make_planetlab_latency(11);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    SimTime t = m->sample(rng, static_cast<NodeId>(i), static_cast<NodeId>(i * 3 + 1));
    EXPECT_GE(t, 20 * kMillisecond);
    EXPECT_LE(t, 300 * kMillisecond);
  }
}

}  // namespace
}  // namespace ares
