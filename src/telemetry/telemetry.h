// telemetry.h — the instrumentation surface.
//
// Hot paths use the TELEMETRY_* macros below, never the registry directly.
// Telemetry is off unless set_enabled(true) (benches flip it on under
// --telemetry). A disabled probe costs one relaxed atomic load and a
// predicted branch; its arguments are evaluated only when enabled, so they
// must be side-effect free.
//
// Metric handles resolve once into a function-local static on the first
// enabled hit, so the registry mutex is off the steady-state path entirely.
#pragma once

#include <optional>

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace axiomcc::telemetry {

namespace detail {
inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// Whether probes record anything right now.
[[nodiscard]] inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// RAII helper backing TELEMETRY_SCOPED_TIMER_US: records the enclosing
/// scope's wall time, in microseconds, into `histogram`.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& histogram)
      : histogram_(histogram), start_us_(Tracer::global().now_us()) {}

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

  ~ScopedHistogramTimer() {
    histogram_.record(
        static_cast<double>(Tracer::global().now_us() - start_us_));
  }

 private:
  Histogram& histogram_;
  std::int64_t start_us_;
};

}  // namespace axiomcc::telemetry

#define AXIOMCC_TELEMETRY_CONCAT_INNER(a, b) a##b
#define AXIOMCC_TELEMETRY_CONCAT(a, b) AXIOMCC_TELEMETRY_CONCAT_INNER(a, b)

/// Adds `delta` to the deterministic counter `name` (a string literal).
/// Deterministic counters must land on identical values at any --jobs level.
#define TELEMETRY_COUNT(name, delta)                                     \
  do {                                                                   \
    if (::axiomcc::telemetry::enabled()) {                               \
      static ::axiomcc::telemetry::Counter& axiomcc_telemetry_counter =  \
          ::axiomcc::telemetry::Registry::global().counter(              \
              (name), ::axiomcc::telemetry::Stability::kDeterministic);  \
      axiomcc_telemetry_counter.add(delta);                              \
    }                                                                    \
  } while (false)

/// Adds `delta` to the schedule-dependent counter `name` (steals, spins —
/// anything whose value depends on thread interleaving).
#define TELEMETRY_COUNT_SCHED(name, delta)                                  \
  do {                                                                      \
    if (::axiomcc::telemetry::enabled()) {                                  \
      static ::axiomcc::telemetry::Counter& axiomcc_telemetry_counter =     \
          ::axiomcc::telemetry::Registry::global().counter(                 \
              (name), ::axiomcc::telemetry::Stability::kScheduleDependent); \
      axiomcc_telemetry_counter.add(delta);                                 \
    }                                                                       \
  } while (false)

/// Adds `delta` (signed) to the gauge `name`.
#define TELEMETRY_GAUGE_ADD(name, delta)                              \
  do {                                                                \
    if (::axiomcc::telemetry::enabled()) {                            \
      static ::axiomcc::telemetry::Gauge& axiomcc_telemetry_gauge =   \
          ::axiomcc::telemetry::Registry::global().gauge((name));     \
      axiomcc_telemetry_gauge.add(delta);                             \
    }                                                                 \
  } while (false)

/// Records `value` into the histogram `name` with the given bucket bounds
/// (an expression yielding const std::vector<double>&).
#define TELEMETRY_HISTOGRAM_RECORD(name, bounds, value)                 \
  do {                                                                  \
    if (::axiomcc::telemetry::enabled()) {                              \
      static ::axiomcc::telemetry::Histogram& axiomcc_telemetry_hist =  \
          ::axiomcc::telemetry::Registry::global().histogram((name),    \
                                                            (bounds));  \
      axiomcc_telemetry_hist.record(value);                             \
    }                                                                   \
  } while (false)

/// Times the rest of the enclosing scope into the µs-latency histogram
/// `name` (default exponential bounds). No-op when telemetry is disabled at
/// runtime — the optional holds nothing.
#define TELEMETRY_SCOPED_TIMER_US(name)                                      \
  std::optional<::axiomcc::telemetry::ScopedHistogramTimer>                  \
      AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_timer_, __LINE__);          \
  if (::axiomcc::telemetry::enabled()) {                                     \
    static ::axiomcc::telemetry::Histogram& AXIOMCC_TELEMETRY_CONCAT(        \
        axiomcc_telemetry_timer_hist_, __LINE__) =                           \
        ::axiomcc::telemetry::Registry::global().latency_histogram((name));  \
    AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_timer_, __LINE__)             \
        .emplace(AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_timer_hist_,     \
                                          __LINE__));                        \
  }

/// RAII span over the rest of the enclosing scope. `category` and `name`
/// are string literals.
#define TELEMETRY_SPAN(category, name)                                \
  std::optional<::axiomcc::telemetry::ScopedSpan>                     \
      AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_span_, __LINE__);    \
  if (::axiomcc::telemetry::enabled()) {                              \
    AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_span_, __LINE__)       \
        .emplace((category), std::string(name));                      \
  }

/// Like TELEMETRY_SPAN but `label_expr` (any expression convertible to
/// std::string) is evaluated only when telemetry is enabled — use for
/// per-cell labels built with string concatenation.
#define TELEMETRY_SPAN_DYN(category, label_expr)                      \
  std::optional<::axiomcc::telemetry::ScopedSpan>                     \
      AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_span_, __LINE__);    \
  if (::axiomcc::telemetry::enabled()) {                              \
    AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_span_, __LINE__)       \
        .emplace((category), std::string(label_expr));                \
  }
