#include "common/mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ares {
namespace {

TEST(MutexTest, NameAndRankAreStored) {
  Mutex mu{"test.mutex.meta", lockrank::kTest};
  EXPECT_STREQ(mu.name(), "test.mutex.meta");
  EXPECT_EQ(mu.rank(), lockrank::kTest);
}

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu{"test.mutex.basic", lockrank::kTest};
  int guarded = 0;
  {
    MutexLock lock(&mu);
    guarded = 7;
  }
  MutexLock lock(&mu);
  EXPECT_EQ(guarded, 7);
}

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex mu{"test.mutex.contended", lockrank::kTest};
  std::int64_t counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  for (auto& w : workers) w.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, static_cast<std::int64_t>(kThreads) * kIters);
}

TEST(MutexTest, AscendingRankAcquisitionIsAllowed) {
  // Acquiring in strictly increasing rank order is the sanctioned nesting;
  // must not trip the debug rank checker.
  Mutex low{"test.rank.low", lockrank::kParallelPool};
  Mutex high{"test.rank.high", lockrank::kShardPool};
  MutexLock a(&low);
  MutexLock b(&high);
  SUCCEED();
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu{"test.condvar", lockrank::kTest};
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(&mu);
    while (!ready) cv.wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu{"test.condvar.all", lockrank::kTest};
  CondVar cv;
  bool go = false;
  int awake = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i)
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.wait(mu);
      ++awake;
    });
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.notify_all();
  for (auto& w : waiters) w.join();
  MutexLock lock(&mu);
  EXPECT_EQ(awake, kWaiters);
}

// Descending rank (kShardPool then kParallelPool) inverts the DESIGN.md
// §11 order; the checker must abort naming both mutexes.
void acquire_out_of_rank() {
  Mutex outer{"test.rank.outer", lockrank::kShardPool};
  Mutex inner{"test.rank.inner", lockrank::kParallelPool};
  MutexLock a(&outer);
  MutexLock b(&inner);
}

// Equal rank is also forbidden (ranks must strictly increase), which
// doubles as self-deadlock detection for one mutex.
void reacquire_same_mutex() {
  Mutex mu{"test.rank.self", lockrank::kTest};
  MutexLock a(&mu);
  MutexLock b(&mu);
}

TEST(MutexDeathTest, OutOfRankAcquireAborts) {
  if (!Mutex::rank_checking_enabled())
    GTEST_SKIP() << "rank checks compiled out (NDEBUG build)";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(acquire_out_of_rank(),
               "lock-rank violation.*test.rank.inner.*test.rank.outer");
}

TEST(MutexDeathTest, SameRankReacquireAborts) {
  if (!Mutex::rank_checking_enabled())
    GTEST_SKIP() << "rank checks compiled out (NDEBUG build)";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(reacquire_same_mutex(), "lock-rank violation.*test.rank.self");
}

}  // namespace
}  // namespace ares
