#include "telemetry/span.h"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "util/json.h"

namespace axiomcc::telemetry {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

std::int64_t Tracer::now_us() const {
  return (steady_ns() - epoch_ns_) / 1000;
}

detail::SpanRing& Tracer::this_thread_ring() {
  thread_local detail::SpanRing* ring = nullptr;
  if (ring == nullptr) {
    const std::lock_guard<std::mutex> lock(rings_mutex_);
    rings_.push_back(std::make_unique<detail::SpanRing>(
        kRingCapacity, static_cast<int>(rings_.size())));
    ring = rings_.back().get();
  }
  return *ring;
}

void Tracer::record(std::string category, std::string name,
                    std::int64_t start_us, std::int64_t duration_us) {
  detail::SpanRing& ring = this_thread_ring();
  const std::lock_guard<std::mutex> lock(ring.mutex);
  if (ring.size == ring.events.size()) ++ring.dropped;
  SpanEvent& slot = ring.events[ring.head];
  slot.category = std::move(category);
  slot.name = std::move(name);
  slot.thread_id = ring.thread_id;
  slot.start_us = start_us;
  slot.duration_us = duration_us;
  ring.head = (ring.head + 1) % ring.events.size();
  if (ring.size < ring.events.size()) ++ring.size;
}

std::vector<SpanEvent> Tracer::collect() const {
  std::vector<SpanEvent> out;
  const std::lock_guard<std::mutex> rings_lock(rings_mutex_);
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> lock(ring->mutex);
    const std::size_t cap = ring->events.size();
    const std::size_t oldest = (ring->head + cap - ring->size) % cap;
    for (std::size_t i = 0; i < ring->size; ++i) {
      out.push_back(ring->events[(oldest + i) % cap]);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.start_us < b.start_us;
                   });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> rings_lock(rings_mutex_);
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> lock(ring->mutex);
    total += ring->dropped;
  }
  return total;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> rings_lock(rings_mutex_);
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> lock(ring->mutex);
    ring->head = 0;
    ring->size = 0;
    ring->dropped = 0;
  }
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"axiomcc\"}}";
  for (const SpanEvent& e : events) {
    out += ",{\"name\":";
    append_json_string(out, e.name);
    out += ",\"cat\":";
    append_json_string(out, e.category);
    out += ",\"ph\":\"X\",\"ts\":";
    out += std::to_string(e.start_us);
    out += ",\"dur\":";
    out += std::to_string(e.duration_us);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(e.thread_id);
    out += "}";
  }
  out += "]}\n";
  std::ofstream file(path);
  if (!file) return false;
  file << out;
  return static_cast<bool>(file);
}

std::vector<SpanEvent> parse_chrome_trace(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace document has no traceEvents array");
  }
  std::vector<SpanEvent> out;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->string != "X") continue;
    SpanEvent span;
    if (const JsonValue* v = e.find("name")) span.name = v->string;
    if (const JsonValue* v = e.find("cat")) span.category = v->string;
    if (const JsonValue* v = e.find("tid")) {
      span.thread_id = static_cast<int>(v->number);
    }
    if (const JsonValue* v = e.find("ts")) {
      span.start_us = static_cast<std::int64_t>(v->number);
    }
    if (const JsonValue* v = e.find("dur")) {
      span.duration_us = static_cast<std::int64_t>(v->number);
    }
    out.push_back(std::move(span));
  }
  return out;
}

}  // namespace axiomcc::telemetry
