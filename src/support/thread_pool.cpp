#include "panorama/support/thread_pool.h"

#include <algorithm>
#include <utility>

namespace panorama {

std::size_t ThreadPool::defaultConcurrency() {
  std::size_t n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = defaultConcurrency();
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;
    Task task = std::move(queue_.front());
    queue_.pop_front();
    run(std::move(task), lock);
  }
}

void ThreadPool::run(Task task, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr error;
  try {
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  task.fn = nullptr;  // the captures go before the group can
  lock.lock();
  Group& group = *task.group;
  if (error && !group.error_) group.error_ = error;
  // Notified under the lock: the waiter cannot see pending_ == 0, return
  // and destroy the group until this thread has let go of it.
  if (--group.pending_ == 0) group.wake_.notify_all();
}

void ThreadPool::Group::spawn(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pool_.mutex_);
    pool_.queue_.push_back(Task{this, std::move(fn)});
    ++pending_;
  }
  // The spawner is the owner or a running task of this group, so the group
  // outlives these notifications.
  pool_.wake_.notify_one();
  wake_.notify_one();
}

void ThreadPool::Group::wait() {
  drain();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::Group::drain() {
  std::unique_lock<std::mutex> lock(pool_.mutex_);
  while (pending_ > 0) {
    auto own = std::find_if(pool_.queue_.begin(), pool_.queue_.end(),
                            [this](const Task& t) { return t.group == this; });
    if (own == pool_.queue_.end()) {
      wake_.wait(lock);
      continue;
    }
    Task task = std::move(*own);
    pool_.queue_.erase(own);
    pool_.run(std::move(task), lock);
  }
}

}  // namespace panorama
