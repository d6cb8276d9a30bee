#include "panorama/support/thread_pool.h"

#include <chrono>

namespace panorama {

std::size_t ThreadPool::defaultConcurrency() {
  std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = defaultConcurrency();
  slots_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) slots_.push_back(std::make_unique<Slot>());
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  // Publish under wakeMutex_: a worker between its predicate check and its
  // wait would otherwise miss the notify and never exit, hanging the join.
  {
    std::lock_guard<std::mutex> lock(wakeMutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::takeTask(std::size_t self, Task& out) {
  const std::size_t n = slots_.size();
  // Own queue first (front: the order the batch scheduled them)...
  {
    Slot& own = *slots_[self];
    std::lock_guard<std::mutex> lock(own.m);
    if (!own.q.empty()) {
      out = std::move(own.q.front());
      own.q.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // ...then steal from a peer's back.
  for (std::size_t d = 1; d < n; ++d) {
    Slot& victim = *slots_[(self + d) % n];
    std::lock_guard<std::mutex> lock(victim.m);
    if (!victim.q.empty()) {
      out = std::move(victim.q.back());
      victim.q.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::runTask(Task& task) {
  task.fn();
  // Decrement under the batch mutex: the waiter re-acquires it once after
  // observing zero, so the batch state cannot be destroyed while any task
  // is still inside this critical section.
  std::lock_guard<std::mutex> lock(*task.doneMutex);
  if (task.remaining->fetch_sub(1, std::memory_order_acq_rel) == 1)
    task.done->notify_all();
}

void ThreadPool::workerLoop(std::size_t self) {
  for (;;) {
    Task task;
    if (takeTask(self, task)) {
      runTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(wakeMutex_);
    wake_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_relaxed) == 0)
      return;
  }
}

void ThreadPool::runBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (threadCount() == 1 || tasks.size() == 1) {
    // Nothing to share: inline, in order, no synchronization.
    for (auto& fn : tasks) fn();
    return;
  }

  std::atomic<std::size_t> remaining{tasks.size()};
  std::condition_variable done;
  std::mutex doneMutex;

  // Round-robin the tasks across every slot (workers and callers alike).
  {
    const std::size_t n = slots_.size();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      Slot& slot = *slots_[i % n];
      std::lock_guard<std::mutex> lock(slot.m);
      slot.q.push_back(Task{std::move(tasks[i]), &remaining, &done, &doneMutex});
    }
    std::lock_guard<std::mutex> lock(wakeMutex_);  // no lost wake-up (see ~ThreadPool)
    queued_.fetch_add(tasks.size(), std::memory_order_relaxed);
  }
  wake_.notify_all();

  // Help until this batch drains. Executing unrelated tasks here is fine —
  // it can only be another batch making progress through us.
  while (remaining.load(std::memory_order_acquire) > 0) {
    Task task;
    if (takeTask(0, task)) {
      runTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(doneMutex);
    done.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return remaining.load(std::memory_order_acquire) == 0;
    });
  }
  // Barrier: the final decrementer holds doneMutex while notifying; taking
  // it once here guarantees every runTask critical section has exited
  // before the batch locals are destroyed.
  { std::lock_guard<std::mutex> lock(doneMutex); }
}

}  // namespace panorama
