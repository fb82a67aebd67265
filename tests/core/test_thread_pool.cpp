#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace bismark {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4);
  std::vector<std::atomic<int>> hits(103);
  pool.parallel_for(hits.size(), [&](std::size_t task, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    hits[task].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleWorkerRunsInlineAndInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(10, [&](std::size_t task, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(task);  // no lock needed: inline serial execution
  });
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
  ThreadPool pool(3);
  pool.parallel_for(0, [](std::size_t, int) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, PoolIsReusableAcrossRounds) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(20, [&](std::size_t, int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, FirstExceptionPropagatesAndStopsDealing) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(1000, [&](std::size_t task, int) {
      if (task == 3) throw std::runtime_error("boom");
      ran.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Dealing stops shortly after the throw; well under the full count.
  EXPECT_LT(ran.load(), 1000);
}

// After a task throws, the remaining tasks are skipped (not run against a
// half-failed round) and the pool stays usable for the next round — the
// deployment runner reuses one pool across heartbeat/passive/traffic stages.
TEST(ThreadPoolTest, PoolIsReusableAfterException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(500, [&](std::size_t task, int) {
      if (task == 2) throw std::runtime_error("boom");
      ran.fetch_add(1);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_LT(ran.load(), 500);  // the failure skipped the remaining tasks
  std::atomic<int> total{0};
  pool.parallel_for(50, [&](std::size_t, int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 50);
}

// Rapid small rounds: each worker repeatedly drains the cursor and must
// park until the *next* round is published, not re-join the drained one.
// Every task runs exactly once per round.
TEST(ThreadPoolTest, ManyShortRoundsRunEachTaskOnce) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> hits{0};
    pool.parallel_for(7, [&](std::size_t, int) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), 7) << "round " << round;
  }
}

TEST(ThreadPoolTest, WorkerCountIsClampedToOne) {
  ThreadPool pool(-2);
  EXPECT_EQ(pool.workers(), 1);
  EXPECT_GE(ThreadPool::HardwareWorkers(), 1);
}

TEST(ThreadPoolTest, PoolWorkersCapsAtTasksAndInt) {
  // Only the count is computed: no pool of these sizes is ever built.
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  constexpr int kIntMax = std::numeric_limits<int>::max();
  EXPECT_EQ(PoolWorkers(2147483647, 170), 170);  // analyze --workers 2147483647
  EXPECT_EQ(PoolWorkers(kHuge, 3), 3);
  EXPECT_EQ(PoolWorkers(4, kHuge), 4);
  EXPECT_EQ(PoolWorkers(kHuge, kHuge), kIntMax);
  EXPECT_EQ(PoolWorkers(std::size_t{1} << 40, std::size_t{1} << 33), kIntMax);
  EXPECT_EQ(PoolWorkers(0, 5), 1);
  EXPECT_EQ(PoolWorkers(5, 0), 1);
  EXPECT_EQ(PoolWorkers(4, 4), 4);
}

}  // namespace
}  // namespace bismark
