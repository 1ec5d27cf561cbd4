#include "sim/event_queue.h"

#include <gtest/gtest.h>

namespace ares {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push_keyed(30, 0, [&] { order.push_back(3); });
  q.push_keyed(10, 1, [&] { order.push_back(1); });
  q.push_keyed(20, 2, [&] { order.push_back(2); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, KeyBreaksTies) {
  EventQueue q;
  std::vector<int> order;
  // Pushed in descending key order: the key, not insertion order, decides.
  for (int i = 4; i >= 0; --i)
    q.push_keyed(100, static_cast<std::uint64_t>(i), [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop()();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  q.push_keyed(50, 0, [] {});
  q.push_keyed(20, 1, [] {});
  EXPECT_EQ(q.next_time(), 20);
  q.pop();
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, SizeTracking) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push_keyed(1, 0, [] {});
  q.push_keyed(2, 1, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace ares
