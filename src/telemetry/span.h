// span.h — trace spans with Chrome trace-event JSON export.
//
// A span is one timed interval on one thread: category, name, start, and
// duration in microseconds relative to the tracer's epoch. Spans land in
// per-thread ring buffers (fixed capacity, oldest-dropped) so recording from
// inside the task pool never allocates and never contends across threads;
// each buffer is guarded by its own mutex, uncontended except during a
// collect(). Export is the Chrome trace-event "complete event" (ph:"X")
// format, loadable in chrome://tracing and https://ui.perfetto.dev.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace axiomcc::telemetry {

struct SpanEvent {
  std::string category;
  std::string name;
  int thread_id = 0;        ///< Small per-thread index, not an OS tid.
  std::int64_t start_us = 0;  ///< Relative to Tracer epoch (process start).
  std::int64_t duration_us = 0;
};

namespace detail {

/// Fixed-capacity per-thread span store. Oldest events are overwritten when
/// full; `dropped` counts the overwrites.
struct SpanRing {
  SpanRing(std::size_t capacity, int thread_id_in)
      : thread_id(thread_id_in), events(capacity) {}

  int thread_id = 0;  ///< Registration order; doubles as the trace tid.
  std::mutex mutex;
  std::vector<SpanEvent> events;
  std::size_t head = 0;  ///< Next write slot.
  std::size_t size = 0;
  std::uint64_t dropped = 0;
};

}  // namespace detail

/// Process-wide span store. Threads register a ring lazily on first record;
/// rings live for the process lifetime (threads are pooled, not churned).
class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 1 << 14;  ///< Per thread.

  [[nodiscard]] static Tracer& global();

  /// Microseconds since this tracer's epoch (first use in the process).
  [[nodiscard]] std::int64_t now_us() const;

  /// Records one completed span on the calling thread's ring.
  void record(std::string category, std::string name, std::int64_t start_us,
              std::int64_t duration_us);

  /// All recorded spans, merged across threads, sorted by start time.
  [[nodiscard]] std::vector<SpanEvent> collect() const;

  /// Total spans overwritten because a ring filled up.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Discards all recorded spans (rings stay registered).
  void reset();

 private:
  Tracer();

  detail::SpanRing& this_thread_ring();

  std::int64_t epoch_ns_ = 0;
  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<detail::SpanRing>> rings_;
};

/// RAII span: records [construction, destruction) on the calling thread.
/// `category` and `name` must outlive the scope (string literals in
/// practice); the strings are copied only at destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, std::string name)
      : category_(category),
        name_(std::move(name)),
        start_us_(Tracer::global().now_us()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    Tracer& tracer = Tracer::global();
    tracer.record(category_, std::move(name_), start_us_,
                  tracer.now_us() - start_us_);
  }

 private:
  const char* category_;
  std::string name_;
  std::int64_t start_us_;
};

/// Writes `events` (plus process metadata) as Chrome trace-event JSON to
/// `path`. Returns false if the file could not be opened.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanEvent>& events);

/// Parses a Chrome trace-event JSON document (as written by
/// write_chrome_trace) back into spans; throws std::runtime_error on
/// malformed input. Metadata events (ph != "X") are skipped.
[[nodiscard]] std::vector<SpanEvent> parse_chrome_trace(
    const std::string& text);

}  // namespace axiomcc::telemetry
