// perturbation.h — composable, deterministically-seeded fault scenarios.
//
// The paper's Metric VI is the only axiom that stresses a protocol under
// adverse conditions; real paths fault in far richer ways — outages, link
// flaps, capacity oscillation, loss storms, RTT inflation, flow churn. This
// module packages those faults as plain data: bandwidth and RTT
// perturbations are fluid::Schedule breakpoints, loss is a fluid::LossSpec,
// and churn is a list of join/leave slots. apply_scenario copies them onto
// an engine::ScenarioSpec, so both backends run the same perturbation.
// Every stochastic element is seeded from the run seed, so a scenario is a
// pure function of (parameters, seed) and gauntlet scorecards are
// reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "engine/scenario.h"
#include "fluid/loss_model.h"
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

/// One churned flow: joins at `start_step`, leaves at `stop_step`
/// (negative → stays until the end of the run).
struct ChurnSlot {
  long start_step = 0;
  long stop_step = -1;
  double initial_window_mss = 1.0;
};

/// Flows joining and leaving mid-run, on top of the base senders.
struct SenderChurnSchedule {
  std::vector<ChurnSlot> slots;

  [[nodiscard]] bool empty() const { return slots.empty(); }
};

/// A named, self-describing bundle of perturbations. Empty members perturb
/// nothing, so scenarios stay composable: a Scenario is just "which axes to
/// set". `perturb_start`/`perturb_end` mark the main disturbance window
/// for scoring (recovery time is measured from `perturb_end`); -1 means the
/// perturbation spans the whole run (or there is none).
struct Scenario {
  std::string name;
  fluid::Schedule bandwidth_scale;
  fluid::Schedule rtt_scale;
  fluid::LossSpec loss;       ///< seeded from the run seed.
  SenderChurnSchedule churn;  ///< empty → no churned flows.
  long perturb_start = -1;
  long perturb_end = -1;
};

/// Installs the perturbations onto a ScenarioSpec: the non-empty schedules
/// and loss, the run seed, and one churn sender slot per churn slot.
/// `churn_prototype` is referenced, not cloned — it must outlive the
/// backend run, like every other slot prototype.
void apply_scenario(const Scenario& s, engine::ScenarioSpec& spec,
                    const cc::Protocol& churn_prototype, std::uint64_t seed);

/// The standard adversarial scenario library for a run of `steps` steps:
/// baseline, deep outage, link flap, square-wave oscillation, sawtooth,
/// loss storm, RTT inflation step, and flow churn.
[[nodiscard]] std::vector<Scenario> standard_gauntlet(long steps);

}  // namespace axiomcc::stress
