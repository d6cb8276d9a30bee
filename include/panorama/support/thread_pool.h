// A small work-stealing thread pool for the parallel analysis driver.
//
// Each worker owns a deque: tasks scheduled to it are popped from the front
// by the owner and stolen from the back by idle peers, so batches with
// uneven task costs (one procedure much larger than its wave siblings)
// still fill every thread. The thread that calls runBatch participates in
// the work and helps drain *any* queue until its own batch completes, which
// makes nested batches (a corpus task fanning out per-procedure waves)
// deadlock-free.
//
// With threadCount() == 1 no workers exist and runBatch executes the tasks
// inline, in submission order, on the calling thread; a one-task batch runs
// inline on any pool. Callers therefore schedule the same batches at every
// pool size and need no serial special case.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace panorama {

class ThreadPool {
 public:
  /// `threads` counts the calling thread: ThreadPool(4) spawns 3 workers.
  /// 0 means defaultConcurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency, calling thread included. Always >= 1.
  std::size_t threadCount() const { return workers_.size() + 1; }

  /// Runs every task to completion before returning. Tasks may themselves
  /// call runBatch on the same pool.
  void runBatch(std::vector<std::function<void()>> tasks);

  /// Tasks currently sitting in worker deques (scheduled, not yet started).
  /// A monitoring-grade sample — racy by nature, exact at quiescence.
  std::size_t queueDepth() const { return queued_.load(std::memory_order_relaxed); }

  /// std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t defaultConcurrency();

 private:
  struct Task {
    std::function<void()> fn;
    std::atomic<std::size_t>* remaining = nullptr;
    std::condition_variable* done = nullptr;
    std::mutex* doneMutex = nullptr;
  };

  struct Slot {
    std::mutex m;
    std::deque<Task> q;
  };

  void workerLoop(std::size_t self);
  /// Pops from slot `self`'s front or steals from another slot's back.
  bool takeTask(std::size_t self, Task& out);
  void runTask(Task& task);

  std::vector<std::unique_ptr<Slot>> slots_;  // index 0 belongs to callers
  std::vector<std::thread> workers_;          // worker i owns slot i+1
  std::mutex wakeMutex_;
  std::condition_variable wake_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace panorama
