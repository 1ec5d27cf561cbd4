#include "dht/sword.h"

#include <gtest/gtest.h>

#include <map>

#include "core/messages.h"  // kNoSigma

namespace ares {
namespace {

class SwordTest : public ::testing::Test {
 protected:
  SwordTest() : sim(1), net(sim, std::make_unique<ConstantLatency>(kMillisecond)) {}

  void build(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      ids.push_back(net.add_node(
          std::make_unique<ChordNode>(ring_hash_node(static_cast<NodeId>(i)))));
    build_ring(net);
  }

  ChordNode& chord(NodeId id) { return *net.find_as<ChordNode>(id); }

  /// Publishes `values` as the resource profile of chord node `id`.
  void publish(NodeId id, Point values) {
    sword_publish(chord(id), id, values);
    profiles[id] = std::move(values);
  }

  Simulator sim;
  Network net;
  std::vector<NodeId> ids;
  std::map<NodeId, Point> profiles;
};

TEST_F(SwordTest, PickDimensionPrefersBounded) {
  auto q = RangeQuery::any(3).with(0, 5, std::nullopt).with(2, 1, 9);
  EXPECT_EQ(sword_pick_dimension(q), 2);
}

TEST_F(SwordTest, PickDimensionFallsBackToPartial) {
  auto q = RangeQuery::any(3).with(1, 5, std::nullopt);
  EXPECT_EQ(sword_pick_dimension(q), 1);
}

TEST_F(SwordTest, PickDimensionUnconstrained) {
  EXPECT_EQ(sword_pick_dimension(RangeQuery::any(3)), -1);
}

TEST_F(SwordTest, EndToEndRangeSearch) {
  build(40);
  Rng rng(2);
  for (NodeId id : ids) publish(id, {rng.range(0, 20), rng.range(0, 20)});
  sim.run();

  auto q = RangeQuery::any(2).with(0, 5, 10).with(1, 0, 15);
  SwordQueryResult result;
  bool done = false;
  SwordQuery::start(chord(ids[0]), q, 0, 5, 10, kNoSigma,
                    [&](const SwordQueryResult& r) {
                      result = r;
                      done = true;
                    });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.buckets_probed, 6u);  // values 5..10
  // Compare with the ground truth over published profiles.
  std::size_t truth = 0;
  for (const auto& [id, v] : profiles)
    if (q.matches(v)) ++truth;
  EXPECT_EQ(result.matches.size(), truth);
  for (const auto& m : result.matches) EXPECT_TRUE(q.matches(m.values));
}

TEST_F(SwordTest, SigmaStopsIteration) {
  build(60);
  // Every node advertises value 7 on dim 0: one hot bucket.
  for (NodeId id : ids) publish(id, {7, 1});
  sim.run();
  auto q = RangeQuery::any(2).with(0, 0, 80);
  SwordQueryResult result;
  SwordQuery::start(chord(ids[1]), q, 0, 0, 80, /*sigma=*/5,
                    [&](const SwordQueryResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.matches.size(), 5u);
  EXPECT_FALSE(result.exhausted);
  EXPECT_LE(result.buckets_probed, 9u);  // stops soon after bucket 7
}

TEST_F(SwordTest, FullQueryFiltersOtherDimensions) {
  build(30);
  publish(ids[0], {10, 99});
  publish(ids[1], {10, 5});
  sim.run();
  // Iterate dim 0 = 10, but require dim 1 <= 10: only ids[1] qualifies.
  auto q = RangeQuery::any(2).with(0, 10, 10).with(1, 0, 10);
  SwordQueryResult result;
  SwordQuery::start(chord(ids[2]), q, 0, 10, 10, kNoSigma,
                    [&](const SwordQueryResult& r) { result = r; });
  sim.run();
  ASSERT_EQ(result.matches.size(), 1u);
  EXPECT_EQ(result.matches[0].node, ids[1]);
}

TEST_F(SwordTest, EmptyRangeCompletesExhausted) {
  build(10);
  sim.run();
  SwordQueryResult result;
  bool done = false;
  SwordQuery::start(chord(ids[0]), RangeQuery::any(2), 0, 30, 35, kNoSigma,
                    [&](const SwordQueryResult& r) {
                      result = r;
                      done = true;
                    });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(result.matches.empty());
}

TEST_F(SwordTest, DuplicateRecordsNotDoubleCounted) {
  build(20);
  // A node matching on two iterated values would appear in two buckets if
  // its value changed; simulate by publishing twice with different values.
  sword_publish(chord(ids[0]), /*owner=*/ids[0], {3, 1});
  sword_publish(chord(ids[0]), /*owner=*/ids[0], {4, 1});
  sim.run();
  auto q = RangeQuery::any(2);
  SwordQueryResult result;
  SwordQuery::start(chord(ids[1]), q, 0, 3, 4, kNoSigma,
                    [&](const SwordQueryResult& r) { result = r; });
  sim.run();
  EXPECT_EQ(result.matches.size(), 1u);  // same owner counted once
}

TEST_F(SwordTest, PublishLoadConcentratesOnHotValueOwner) {
  build(50);
  // Highly skewed attribute: all nodes share value 7 on dim 0.
  net.set_load_filter([](const Message& m) {
    return std::string_view(m.type_name()).starts_with("dht.");
  });
  for (NodeId id : ids) publish(id, {7, id});
  sim.run();
  const auto& recv = net.stats().load_received_by_node();
  std::uint64_t max_recv = 0, total = 0;
  std::size_t touched = 0;
  for (auto c : recv) {
    max_recv = std::max(max_recv, c);
    total += c;
    if (c > 0) ++touched;
  }
  ASSERT_GT(total, 0u);
  ASSERT_GT(touched, 0u);
  // The hot bucket's owner absorbs far more than an average node — the
  // delegation-induced imbalance the paper's Fig. 9(b) shows.
  double mean = static_cast<double>(total) / static_cast<double>(touched);
  EXPECT_GT(static_cast<double>(max_recv), 5.0 * mean);
}

}  // namespace
}  // namespace ares
