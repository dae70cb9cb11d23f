// metrics.h — the process-wide counter registry.
//
// Counters for the hot paths (fluid tick loop, guarded stress runner,
// fuzzer, experiment fan-outs). Every counter is sharded into per-thread
// cells — an instrumented hot path does a relaxed fetch_add on a cache line
// no other thread touches — and the shards are summed only when a snapshot
// is taken. Telemetry is off by default (telemetry.h's macros check
// `enabled()` first), so uninstrumented runs pay one predicted branch per
// probe.
//
// Determinism contract: a counter counts simulation *content* (ticks, loss
// events, cells, faults), never the execution, so it lands on the same value
// at any --jobs level; RegistrySnapshot::to_json() renders the counters
// sorted by name, so two snapshots of the same workload are byte-comparable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace axiomcc::telemetry {

/// Number of per-thread cells per counter. Threads beyond this share cells
/// round-robin — values stay exact (the cells are atomic), only contention
/// rises. 32 comfortably covers TaskPool's 1024-worker cap in practice.
inline constexpr int kMaxShards = 32;

namespace detail {

/// Shard index of the calling thread (assigned round-robin on first use).
[[nodiscard]] int this_thread_shard();

/// One cache line per cell so concurrent writers never false-share.
struct alignas(64) Cell {
  std::atomic<std::int64_t> value{0};
};

}  // namespace detail

/// Monotonic (in intent) event counter. add() is wait-free on the calling
/// thread's shard; value() sums the shards (approximate only while writers
/// are mid-add — exact once the instrumented work has joined).
class Counter {
 public:
  void add(std::int64_t delta) {
    shards_[detail::this_thread_shard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t value() const {
    std::int64_t sum = 0;
    for (const detail::Cell& cell : shards_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() {
    for (detail::Cell& cell : shards_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<detail::Cell, kMaxShards> shards_;
};

struct CounterSnapshot {
  std::string name;
  std::int64_t value = 0;
};

/// Point-in-time values of every registered counter, sorted by name.
struct RegistrySnapshot {
  std::vector<CounterSnapshot> counters;

  /// The counters as a flat JSON object in name order — byte-identical for
  /// the same workload at any --jobs level.
  [[nodiscard]] std::string to_json() const;
};

/// The process-wide registry. Registration takes a mutex; the returned
/// references are stable for the process lifetime, so instrumentation sites
/// resolve them once into a function-local static and never touch the lock
/// again.
class Registry {
 public:
  [[nodiscard]] static Registry& global();

  /// Registers (or looks up) the counter `name`.
  Counter& counter(const std::string& name);

  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Zeroes every counter; registrations are kept.
  void reset_values();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace axiomcc::telemetry
