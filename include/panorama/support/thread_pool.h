// The analysis thread pool: workers that run groups of tasks.
//
// A Group is a set of tasks waited for together. Its owner and its own
// running tasks spawn into it; every task queues in the pool's one FIFO,
// which the workers drain. Group::wait returns once every task of the
// group, those spawned while it waited included, has finished. Meanwhile
// the waiting thread runs only its own group's queued tasks and otherwise
// sleeps on the group's condition variable, so a waiter never runs another
// group's task (a daemon client's submit never runs another client's work)
// and never polls.
//
// ThreadPool(1) starts no worker: a group's tasks run on the thread that
// waits for it, in spawn order. Callers therefore schedule the same tasks
// at every pool size and need no serial special case.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace panorama {

class ThreadPool {
 public:
  class Group {
   public:
    explicit Group(ThreadPool& pool) : pool_(pool) {}
    ~Group() { drain(); }

    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    /// Queues `fn`. Called by the group's owner or by one of its running
    /// tasks, never after the owner's wait has returned.
    void spawn(std::function<void()> fn);

    /// Returns once every task spawned into the group has finished, then
    /// rethrows the first exception a task threw, if any.
    void wait();

   private:
    friend class ThreadPool;
    void drain();

    ThreadPool& pool_;
    // Guarded by the pool's mutex.
    std::size_t pending_ = 0;  ///< spawned, not yet finished
    std::exception_ptr error_;
    std::condition_variable wake_;  ///< a task was queued, or the last one finished
  };

  /// `threads` counts the calling thread: ThreadPool(4) starts 3 workers.
  /// 0 means defaultConcurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency, calling thread included. Always >= 1.
  std::size_t threadCount() const { return workers_.size() + 1; }

  /// Tasks queued and not yet started, over every group. A monitoring
  /// sample: exact at quiescence.
  std::size_t queueDepth() const;

  /// std::thread::hardware_concurrency() with a floor of 1.
  static std::size_t defaultConcurrency();

 private:
  struct Task {
    Group* group;
    std::function<void()> fn;
  };

  void workerLoop();
  /// Runs `task` with `lock` released, then retires it from its group,
  /// recording what it threw.
  void run(Task task, std::unique_lock<std::mutex>& lock);

  mutable std::mutex mutex_;
  std::condition_variable wake_;  ///< workers: a task was queued, or the pool stops
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace panorama
