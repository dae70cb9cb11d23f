// task_pool.h — a work-stealing thread pool and a deterministic parallel map.
//
// Every experiment driver in the repo (metric sweeps, the gauntlet matrix,
// Pareto sampling, theorem grids) fans out over independent simulation cells.
// parallel_map runs those cells on a work-stealing pool while preserving the
// exact output the serial loops produced: results are written to their input
// slot (input ordering preserved), every cell's computation is a pure
// function of its index, and any per-cell randomness must derive its seed
// from the cell index via derive_task_seed — never from thread identity or
// scheduling order. Serial (jobs=1) and parallel runs are therefore
// bit-identical; docs/parallel.md spells out the contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace axiomcc {

/// max(1, std::thread::hardware_concurrency()).
[[nodiscard]] long hardware_jobs();

/// Resolves a requested job count: a positive request wins; otherwise the
/// AXIOMCC_JOBS environment variable (so `ctest -j` can cap every test's
/// internal pool from the outside); otherwise hardware_jobs(). Always >= 1.
[[nodiscard]] long resolve_jobs(long requested);

/// Deterministic per-task seed: element `index` of the SplitMix64 stream
/// anchored at `base_seed`. Depends only on (base_seed, index) — never on
/// which thread runs the task — so stochastic cells stay reproducible under
/// any schedule. Distinct indices give statistically independent seeds.
[[nodiscard]] constexpr std::uint64_t derive_task_seed(std::uint64_t base_seed,
                                                       std::uint64_t index) {
  std::uint64_t state = base_seed + 0x9e3779b97f4a7c15ULL * index;
  return splitmix64_next(state);
}

/// Work-stealing thread pool: each worker owns a deque, pops its own work
/// LIFO and steals FIFO from its peers when empty, so unbalanced cells (one
/// slow protocol in a sweep) do not idle the other workers.
class TaskPool {
 public:
  /// The most workers one pool takes.
  static constexpr int kMaxThreads = 1024;

  /// Spawns `num_threads` workers (1..kMaxThreads; the calling thread only
  /// submits).
  explicit TaskPool(int num_threads);

  /// Drains remaining tasks, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues a task (round-robin over worker deques; idle workers steal).
  /// Tasks must not throw — wrap fallible work in stress::guard_invoke or a
  /// try/catch (parallel_map does this for you).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(workers_.size());
  }

 private:
  struct Worker {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool acquire(std::size_t self, std::function<void()>& out);
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex sync_;
  std::condition_variable work_cv_;   ///< wakes sleeping workers.
  std::condition_variable idle_cv_;   ///< wakes wait_idle callers.
  std::atomic<long> queued_{0};       ///< tasks enqueued, not yet picked up.
  std::size_t pending_ = 0;           ///< tasks submitted, not yet finished.
  std::size_t next_worker_ = 0;       ///< round-robin submit cursor.
  bool stop_ = false;
};

/// Maps `fn` over indices [0, n) and returns the results in input order.
/// `jobs` is resolved via resolve_jobs; a resolved count of 1 (or n <= 1)
/// runs the exact serial loop. Each fn(i) must be independent of every other
/// task and must not touch shared mutable state (fn is invoked concurrently);
/// per-task exceptions are captured and the lowest-index one is rethrown
/// after all tasks finish — fan-out sites that must not abort wrap the task
/// body in stress::guard_invoke so a diverging cell becomes a FaultReport.
template <typename Fn>
[[nodiscard]] auto parallel_map(std::size_t n, Fn&& fn, long jobs = 0)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using T = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<T>, "parallel_map tasks must return a value");

  const long resolved =
      std::min<long>(resolve_jobs(jobs),
                     n > 0 ? static_cast<long>(n) : 1L);
  std::vector<T> out;
  if (resolved <= 1) {
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }

  std::vector<std::optional<T>> slots(n);
  std::vector<std::exception_ptr> errors(n);
  {
    TaskPool pool(static_cast<int>(resolved));
    for (std::size_t i = 0; i < n; ++i) {
      pool.submit([&slots, &errors, &fn, i] {
        try {
          slots[i].emplace(fn(i));
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  out.reserve(n);
  for (std::optional<T>& slot : slots) out.push_back(std::move(*slot));
  return out;
}

/// Item-based overload: maps `fn(item)` over `items`, order preserved.
template <typename T, typename Fn>
[[nodiscard]] auto parallel_map(const std::vector<T>& items, Fn&& fn,
                                long jobs = 0)
    -> std::vector<std::invoke_result_t<Fn&, const T&>> {
  return parallel_map(
      items.size(), [&](std::size_t i) { return fn(items[i]); }, jobs);
}

}  // namespace axiomcc
