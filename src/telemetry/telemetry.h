// telemetry.h — the instrumentation surface.
//
// Hot paths use the two TELEMETRY_* macros below, never the registry
// directly. Telemetry is off unless set_enabled(true) (benches flip it on
// under --telemetry). A disabled probe costs one relaxed atomic load and a
// predicted branch; its arguments are evaluated only when enabled, so they
// must be side-effect free.
//
// Counter handles resolve once into a function-local static on the first
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

}  // namespace axiomcc::telemetry

#define AXIOMCC_TELEMETRY_CONCAT_INNER(a, b) a##b
#define AXIOMCC_TELEMETRY_CONCAT(a, b) AXIOMCC_TELEMETRY_CONCAT_INNER(a, b)

/// Adds `delta` to the counter `name` (a string literal). A counter counts
/// simulation content, so it must land on the same value at any --jobs level.
#define TELEMETRY_COUNT(name, delta)                                    \
  do {                                                                  \
    if (::axiomcc::telemetry::enabled()) {                              \
      static ::axiomcc::telemetry::Counter& axiomcc_telemetry_counter = \
          ::axiomcc::telemetry::Registry::global().counter(name);       \
      axiomcc_telemetry_counter.add(delta);                             \
    }                                                                   \
  } while (false)

/// RAII span over the rest of the enclosing scope. `category` is a string
/// literal; `label_expr` (anything convertible to std::string, e.g. a
/// per-cell label built by concatenation) is evaluated only when telemetry
/// is enabled.
#define TELEMETRY_SPAN(category, label_expr)                       \
  std::optional<::axiomcc::telemetry::ScopedSpan>                  \
      AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_span_, __LINE__); \
  if (::axiomcc::telemetry::enabled()) {                           \
    AXIOMCC_TELEMETRY_CONCAT(axiomcc_telemetry_span_, __LINE__)    \
        .emplace((category), std::string(label_expr));             \
  }
