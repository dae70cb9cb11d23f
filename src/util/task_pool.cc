#include "util/task_pool.h"

#include <cstdlib>

namespace axiomcc {

long hardware_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<long>(hc);
}

long resolve_jobs(long requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("AXIOMCC_JOBS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) return parsed;
  }
  return hardware_jobs();
}

TaskPool::TaskPool(int num_threads) {
  AXIOMCC_EXPECTS(num_threads >= 1 && num_threads <= kMaxThreads);
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

TaskPool::~TaskPool() {
  wait_idle();
  {
    const std::lock_guard<std::mutex> lock(sync_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void TaskPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(sync_);
    Worker& worker = *workers_[next_worker_];
    next_worker_ = (next_worker_ + 1) % workers_.size();
    {
      const std::lock_guard<std::mutex> worker_lock(worker.mutex);
      worker.tasks.push_back(std::move(task));
    }
    queued_.fetch_add(1, std::memory_order_release);
    ++pending_;
  }
  work_cv_.notify_one();
}

void TaskPool::wait_idle() {
  std::unique_lock<std::mutex> lock(sync_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

bool TaskPool::acquire(std::size_t self, std::function<void()>& out) {
  {  // Own deque first, newest task first (LIFO keeps caches warm).
    Worker& own = *workers_[self];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      out = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  // Steal oldest-first from peers, scanning from the next worker over so
  // victims spread instead of piling onto worker 0.
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    const std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      return true;
    }
  }
  return false;
}

void TaskPool::worker_loop(std::size_t self) {
  for (;;) {
    std::function<void()> task;
    if (acquire(self, task)) {
      task();
      const std::lock_guard<std::mutex> lock(sync_);
      --pending_;
      if (pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(sync_);
    if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
    work_cv_.wait(lock, [this] {
      return stop_ || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && queued_.load(std::memory_order_acquire) == 0) return;
  }
}

}  // namespace axiomcc
