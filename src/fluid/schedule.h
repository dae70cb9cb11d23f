// schedule.h — a piecewise-constant link perturbation schedule as plain data.
//
// Bandwidth and RTT perturbations (outages, flaps, oscillations, RTT steps)
// are all step functions of the simulation step. A Schedule stores one as
// sorted breakpoints, so a scenario that carries it can be compared,
// serialized and mutated like any other value (the fuzzer's `.scn` `bw` and
// `rtt` lines are these breakpoints verbatim).
#pragma once

#include <algorithm>
#include <iterator>
#include <vector>

namespace axiomcc::fluid {

/// Multiplicative scale factor as a function of the step index. `scale` of
/// a breakpoint applies from step `at` (inclusive) until the next
/// breakpoint; steps before the first breakpoint scale by 1. Breakpoints
/// must strictly increase in `at` (engine::validate_schedule enforces this
/// with positive, finite scales). Empty means "no schedule": the simulators
/// leave the link untouched, rather than re-applying a scale of 1.
struct Schedule {
  struct Point {
    long at = 0;
    double scale = 1.0;

    friend bool operator==(const Point&, const Point&) = default;
  };

  std::vector<Point> points;

  [[nodiscard]] bool empty() const { return points.empty(); }

  /// The scale at `step` (binary search over the breakpoints).
  [[nodiscard]] double at(long step) const {
    const auto next = std::upper_bound(
        points.begin(), points.end(), step,
        [](long s, const Point& p) { return s < p.at; });
    return next == points.begin() ? 1.0 : std::prev(next)->scale;
  }

  friend bool operator==(const Schedule&, const Schedule&) = default;
};

}  // namespace axiomcc::fluid
