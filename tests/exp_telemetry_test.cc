// Determinism acceptance test for the telemetry subsystem: the counter
// snapshot of an instrumented experiment must be byte-identical whether the
// fan-out ran serial or over the work-stealing pool. Counters count
// simulation content only; the pool itself records nothing.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep.h"
#include "telemetry/telemetry.h"

namespace axiomcc {
namespace {

exp::LinkGrid small_grid() {
  exp::LinkGrid grid;
  grid.bandwidths_mbps = {20.0, 60.0};
  grid.rtts_ms = {42.0};
  grid.buffers_mss = {10.0, 100.0};
  return grid;
}

core::EvalConfig quick_cfg() {
  core::EvalConfig cfg;
  cfg.steps = 800;
  cfg.fast_utilization_steps = 400;
  cfg.robustness_steps = 400;
  return cfg;
}

/// Runs the sweep with telemetry freshly enabled and returns the counter
/// snapshot.
std::string sweep_snapshot(long jobs) {
  telemetry::Registry::global().reset_values();
  telemetry::Tracer::global().reset();
  telemetry::set_enabled(true);
  const std::vector<std::string> specs{"reno", "scalable"};
  (void)exp::run_metric_sweep(specs, small_grid(), quick_cfg(), jobs);
  telemetry::set_enabled(false);
  return telemetry::Registry::global().snapshot().to_json();
}

TEST(ExpTelemetry, DeterministicCountersIdenticalAcrossJobCounts) {
  const std::string serial = sweep_snapshot(1);
  const std::string parallel = sweep_snapshot(4);
  EXPECT_EQ(serial, parallel);
  // The snapshot must actually contain the sweep's content counters —
  // an empty-vs-empty match would be vacuous.
  EXPECT_NE(serial.find("\"exp.sweep.cells\":8"), std::string::npos)
      << serial;
  EXPECT_NE(serial.find("fluid.ticks"), std::string::npos) << serial;
}

TEST(ExpTelemetry, SnapshotIsRepeatableForTheSameWorkload) {
  EXPECT_EQ(sweep_snapshot(4), sweep_snapshot(4));
}

}  // namespace
}  // namespace axiomcc
