#include "stress/perturbation.h"

#include <utility>

#include "telemetry/telemetry.h"
#include "util/check.h"

namespace axiomcc::stress {

namespace {

/// Breakpoints of `scale` over steps [0, steps): one at step 0 and one at
/// every step whose value differs from the step before. Each value is the
/// shape's own expression evaluated at that step, so the schedule matches
/// the formula bit for bit on the whole horizon.
template <typename Shape>
fluid::Schedule sample_schedule(long steps, Shape scale) {
  AXIOMCC_EXPECTS(steps > 0);
  fluid::Schedule out;
  for (long step = 0; step < steps; ++step) {
    const double value = scale(step);
    if (out.points.empty() || value != out.points.back().scale) {
      out.points.push_back({step, value});
    }
  }
  return out;
}

}  // namespace

fluid::Schedule outage_schedule(long start, long duration, double residual) {
  AXIOMCC_EXPECTS(start >= 0);
  AXIOMCC_EXPECTS(duration > 0);
  AXIOMCC_EXPECTS(residual > 0.0 && residual <= 1.0);
  return fluid::Schedule{{{start, residual}, {start + duration, 1.0}}};
}

fluid::Schedule square_wave_schedule(long steps, long period, double high,
                                     double low, long phase) {
  AXIOMCC_EXPECTS(period >= 2);
  AXIOMCC_EXPECTS(high > 0.0 && low > 0.0);
  AXIOMCC_EXPECTS(phase >= 0);
  return sample_schedule(steps, [period, high, low, phase](long step) {
    const long pos = (step + phase) % period;
    return pos < period / 2 ? high : low;
  });
}

fluid::Schedule sawtooth_schedule(long steps, long period, double low,
                                  double high) {
  AXIOMCC_EXPECTS(period >= 2);
  AXIOMCC_EXPECTS(low > 0.0 && high >= low);
  return sample_schedule(steps, [period, low, high](long step) {
    const long pos = step % period;
    return low + (high - low) * static_cast<double>(pos) /
                     static_cast<double>(period - 1);
  });
}

fluid::Schedule step_change_schedule(long at, double before, double after) {
  AXIOMCC_EXPECTS(at >= 0);
  AXIOMCC_EXPECTS(before > 0.0 && after > 0.0);
  if (at == 0) return fluid::Schedule{{{0, after}}};
  return fluid::Schedule{{{0, before}, {at, after}}};
}

void apply_scenario(const Scenario& s, engine::ScenarioSpec& spec,
                    const cc::Protocol& churn_prototype, std::uint64_t seed) {
  TELEMETRY_COUNT("stress.scenarios_applied", 1);
  if (!s.bandwidth_scale.empty()) spec.bandwidth_scale = s.bandwidth_scale;
  if (!s.rtt_scale.empty()) spec.rtt_scale = s.rtt_scale;
  if (!s.loss.empty()) spec.loss = s.loss;
  spec.seed = seed;
  for (const ChurnSlot& slot : s.churn.slots) {
    if (spec.topology.empty()) {
      spec.add_sender(churn_prototype, slot.initial_window_mss,
                      static_cast<double>(slot.start_step),
                      static_cast<double>(slot.stop_step));
    } else {
      // Topology mode: churned flows join on the first slot's route (the
      // long path in the parking-lot builder), so the perturbation stresses
      // every bottleneck the resident flows cross.
      std::vector<int> route = spec.senders.empty()
                                   ? std::vector<int>{0}
                                   : spec.senders.front().route;
      spec.add_routed_sender(churn_prototype, std::move(route),
                             slot.initial_window_mss,
                             static_cast<double>(slot.start_step),
                             static_cast<double>(slot.stop_step));
    }
  }
}

std::vector<Scenario> standard_gauntlet(long steps) {
  AXIOMCC_EXPECTS(steps >= 100);
  std::vector<Scenario> out;

  {
    Scenario s;
    s.name = "baseline";
    out.push_back(std::move(s));
  }
  {
    // One deep outage in the middle third: bandwidth → ~0 for steps/10.
    Scenario s;
    s.name = "outage";
    s.perturb_start = steps * 2 / 5;
    s.perturb_end = s.perturb_start + steps / 10;
    s.bandwidth_scale = outage_schedule(
        s.perturb_start, s.perturb_end - s.perturb_start, 1e-3);
    out.push_back(std::move(s));
  }
  {
    // Fast flapping: full rate / 5% of rate every 8 steps.
    Scenario s;
    s.name = "flap";
    s.perturb_start = 0;
    s.perturb_end = -1;
    s.bandwidth_scale = square_wave_schedule(steps, 16, 1.0, 0.05);
    out.push_back(std::move(s));
  }
  {
    // Slow square-wave capacity oscillation between 100% and 40%.
    Scenario s;
    s.name = "oscillation";
    s.perturb_start = 0;
    s.perturb_end = -1;
    s.bandwidth_scale = square_wave_schedule(steps, steps / 5, 1.0, 0.4);
    out.push_back(std::move(s));
  }
  {
    // Sawtooth capacity: ramps 30% → 100%, collapses, repeats.
    Scenario s;
    s.name = "sawtooth";
    s.perturb_start = 0;
    s.perturb_end = -1;
    s.bandwidth_scale = sawtooth_schedule(steps, steps / 6, 0.3, 1.0);
    out.push_back(std::move(s));
  }
  {
    // A Gilbert-Elliott loss storm over the middle third of the run.
    Scenario s;
    s.name = "loss_storm";
    s.perturb_start = steps / 3;
    s.perturb_end = 2 * steps / 3;
    s.loss.kind = fluid::LossSpec::Kind::kStorm;
    s.loss.start = s.perturb_start;
    s.loss.end = s.perturb_end;
    s.loss.p_gb = 0.2;
    s.loss.p_bg = 0.3;
    s.loss.good_rate = 0.0;
    s.loss.bad_rate = 0.3;
    out.push_back(std::move(s));
  }
  {
    // Persistent 3× RTT inflation from mid-run (path change).
    Scenario s;
    s.name = "rtt_step";
    s.perturb_start = steps / 2;
    s.perturb_end = -1;
    s.rtt_scale = step_change_schedule(s.perturb_start, 1.0, 3.0);
    out.push_back(std::move(s));
  }
  {
    // Flow churn: two extra flows join in the middle third; one leaves.
    Scenario s;
    s.name = "churn";
    s.perturb_start = steps / 3;
    s.perturb_end = 2 * steps / 3;
    s.churn.slots.push_back(ChurnSlot{steps / 3, 2 * steps / 3, 1.0});
    s.churn.slots.push_back(ChurnSlot{steps / 2, -1, 1.0});
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace axiomcc::stress
