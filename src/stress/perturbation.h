// perturbation.h — schedule shapes for adversarial link perturbations.
//
// The paper's Metric VI is the only axiom that stresses a protocol under
// adverse conditions; real paths fault in far richer ways — outages, link
// flaps, capacity oscillation, RTT inflation. This module builds those
// shapes as plain fluid::Schedule breakpoints, which an
// engine::ScenarioSpec carries as its bandwidth or RTT schedule, so both
// backends run the same perturbation. Loss storms are a fluid::LossSpec and
// churn is extra engine::SenderSlots; the gauntlet (exp/gauntlet.h) bundles
// all of them into its named overlay library.
#pragma once

#include "fluid/schedule.h"

namespace axiomcc::stress {

/// Link outage: scale drops to `residual` (≈0; must stay positive for the
/// fluid model) on steps [start, start+duration), then restores to 1.
[[nodiscard]] fluid::Schedule outage_schedule(long start, long duration,
                                              double residual = 1e-3);

/// Square-wave oscillation over steps [0, steps): `high` for the first half
/// of each period, `low` for the second half. With a small `low` this is a
/// link flap.
[[nodiscard]] fluid::Schedule square_wave_schedule(long steps, long period,
                                                   double high, double low,
                                                   long phase = 0);

/// Sawtooth oscillation over steps [0, steps): ramps linearly from `low` to
/// `high` over each period, then snaps back (repeated capacity build-up and
/// collapse). One breakpoint per step.
[[nodiscard]] fluid::Schedule sawtooth_schedule(long steps, long period,
                                                double low, double high);

/// Step change: `before` on steps < at, `after` from step `at` onwards
/// (e.g. a persistent RTT inflation after a path change).
[[nodiscard]] fluid::Schedule step_change_schedule(long at, double before,
                                                   double after);

}  // namespace axiomcc::stress
