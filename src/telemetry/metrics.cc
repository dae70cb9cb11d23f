#include "telemetry/metrics.h"

#include "util/json.h"

namespace axiomcc::telemetry {

namespace detail {

int this_thread_shard() {
  static std::atomic<int> next{0};
  thread_local const int shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMaxShards;
  return shard;
}

}  // namespace detail

std::string RegistrySnapshot::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_json_string(out, counters[i].name);
    out.push_back(':');
    out += std::to_string(counters[i].value);
  }
  out.push_back('}');
  return out;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

RegistrySnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back(CounterSnapshot{name, counter->value()});
  }
  return snap;
}

void Registry::reset_values() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [_, counter] : counters_) counter->reset();
}

}  // namespace axiomcc::telemetry
