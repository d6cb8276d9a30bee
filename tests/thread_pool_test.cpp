// The analysis thread pool: task groups whose tasks spawn more tasks, and
// waiters that run only their own group's work.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "panorama/support/thread_pool.h"

namespace panorama {
namespace {

TEST(ThreadPoolTest, OneThreadRunsTasksOnTheCallerInSpawnOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> order;
  bool elsewhere = false;
  ThreadPool::Group group(pool);
  auto task = [&](std::string name, std::vector<std::string> children) {
    return [&, name, children] {
      if (std::this_thread::get_id() != caller) elsewhere = true;
      order.push_back(name);
      for (const std::string& child : children)
        group.spawn([&, child] {
          if (std::this_thread::get_id() != caller) elsewhere = true;
          order.push_back(child);
        });
    };
  };
  group.spawn(task("a", {"a1", "a2"}));
  group.spawn(task("b", {"b1"}));
  group.spawn(task("c", {}));
  EXPECT_EQ(pool.queueDepth(), 3u);  // nothing runs before wait
  group.wait();
  EXPECT_FALSE(elsewhere);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "a1", "a2", "b1"}));
  EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPoolTest, WaitReturnsOnceATreeOfSpawnedTasksHasFinished) {
  // A ternary tree of depth 5 spawned from inside its own tasks: 364
  // tasks, each counted at its very end.
  constexpr int kDepth = 5;
  constexpr int kNodes = (729 - 1) / 2;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threadCount(), threads);
    std::atomic<int> finished{0};
    ThreadPool::Group group(pool);
    std::function<void(int)> node = [&](int depth) {
      if (depth < kDepth)
        for (int k = 0; k < 3; ++k) group.spawn([&node, depth] { node(depth + 1); });
      finished.fetch_add(1, std::memory_order_relaxed);
    };
    group.spawn([&node] { node(0); });
    group.wait();
    EXPECT_EQ(finished.load(), kNodes) << threads << " threads";
    EXPECT_EQ(pool.queueDepth(), 0u) << threads << " threads";
  }
}

TEST(ThreadPoolTest, AWaiterNeverRunsAnotherGroupsTask) {
  // Two threads each wait for their own group on a 2-thread pool (one
  // worker). Their tasks interleave in the pool's queue; each group's
  // tasks may run on its own waiter or on the worker, never on the other
  // waiter.
  ThreadPool pool(2);
  constexpr int kTasks = 200;
  std::latch start(2);
  std::vector<std::thread::id> ranOn[2];
  std::thread::id waiter[2];
  auto client = [&](int self) {
    waiter[self] = std::this_thread::get_id();
    ranOn[self].resize(2 * kTasks);
    ThreadPool::Group group(pool);
    start.arrive_and_wait();
    for (int k = 0; k < kTasks; ++k)
      group.spawn([&, self, k] {
        ranOn[self][2 * k] = std::this_thread::get_id();
        group.spawn([&, self, k] { ranOn[self][2 * k + 1] = std::this_thread::get_id(); });
        std::this_thread::yield();
      });
    group.wait();
  };
  std::thread a(client, 0);
  std::thread b(client, 1);
  a.join();
  b.join();
  for (int self : {0, 1}) {
    for (const std::thread::id& id : ranOn[self]) {
      EXPECT_NE(id, std::thread::id()) << "group " << self << " left a task unrun";
      EXPECT_NE(id, waiter[1 - self]) << "group " << self << " ran on the other waiter";
    }
  }
  EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(ThreadPoolTest, WaitRethrowsWhatATaskThrewAfterTheRestFinished) {
  for (std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<int> finished{0};
    ThreadPool::Group group(pool);
    for (int k = 0; k < 16; ++k)
      group.spawn([&finished, k] {
        if (k == 3) throw std::runtime_error("task 3");
        finished.fetch_add(1, std::memory_order_relaxed);
      });
    EXPECT_THROW(group.wait(), std::runtime_error) << threads << " threads";
    EXPECT_EQ(finished.load(), 15) << threads << " threads";
    group.wait();  // the exception was handed over once
  }
}

TEST(ThreadPoolTest, ZeroThreadsMeansDefaultConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threadCount(), ThreadPool::defaultConcurrency());
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
}

}  // namespace
}  // namespace panorama
