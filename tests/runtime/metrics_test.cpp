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

TEST(Metrics, ReservedRowsAreSizedOnceAndCounted) {
  // Joins up to the reservation never regrow a row, counters interned after
  // it included; the bytes count the rows' storage, not their fill.
  Metrics m;
  m.counter("a.counter");
  m.reserve_capacity(1000);
  const Metrics::Counter b = m.counter("b.counter");
  const std::size_t reserved = m.memory_bytes();
  EXPECT_GE(reserved, 2 * 1000 * sizeof(std::uint64_t));
  for (std::size_t n = 1; n <= 1000; ++n) m.reserve_nodes(n);  // one join each
  m.inc(999, b);
  EXPECT_EQ(m.memory_bytes(), reserved);
  m.reserve_nodes(1001);  // past the reservation: rows grow as before
  EXPECT_GT(m.memory_bytes(), reserved);
  EXPECT_EQ(m.node_value(999, "b.counter"), 1u);
}

}  // namespace
}  // namespace ares
