#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ares {
namespace {

TEST(Metrics, CountersAccumulatePerNode) {
  Metrics m;
  m.inc(1, "query.timeouts");
  m.inc(1, "query.timeouts", 2);
  m.inc(2, "query.timeouts");
  EXPECT_EQ(m.node_value(1, "query.timeouts"), 3u);
  EXPECT_EQ(m.node_value(2, "query.timeouts"), 1u);
  EXPECT_EQ(m.total("query.timeouts"), 4u);
}

TEST(Metrics, UnknownNamesReadZero) {
  Metrics m;
  EXPECT_EQ(m.total("never.bumped"), 0u);
  EXPECT_EQ(m.node_value(9, "never.bumped"), 0u);
  EXPECT_TRUE(m.by_node("never.bumped").empty());
}

TEST(Metrics, ByNodeSortsAscending) {
  Metrics m;
  m.inc(5, "gossip.cycles");
  m.inc(1, "gossip.cycles", 3);
  m.inc(3, "gossip.cycles", 2);
  auto rows = m.by_node("gossip.cycles");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::pair<NodeId, std::uint64_t>{1, 3}));
  EXPECT_EQ(rows[1], (std::pair<NodeId, std::uint64_t>{3, 2}));
  EXPECT_EQ(rows[2], (std::pair<NodeId, std::uint64_t>{5, 1}));
}

TEST(Metrics, CounterNamesSortedAndClearable) {
  Metrics m;
  m.inc(1, "b.counter");
  m.inc(1, "a.counter");
  EXPECT_EQ(m.counter_names(), (std::vector<std::string>{"a.counter", "b.counter"}));
  m.clear();
  EXPECT_TRUE(m.counter_names().empty());
  EXPECT_EQ(m.total("a.counter"), 0u);
}

}  // namespace
}  // namespace ares
