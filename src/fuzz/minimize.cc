#include "fuzz/minimize.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace axiomcc::fuzz {

namespace {

/// `v` rounded to `digits` significant decimal digits (prettier reproducers;
/// accepted only if the finding survives the rounding).
double round_sig(double v, int digits) {
  if (v == 0.0 || !std::isfinite(v)) return v;
  const int exponent =
      digits - 1 - static_cast<int>(std::floor(std::log10(std::abs(v))));
  const double mag = std::pow(10.0, exponent);
  return std::round(v * mag) / mag;
}

}  // namespace

MinimizeResult minimize_finding(const engine::ScenarioSpec& spec,
                                const ExpectDesc& target,
                                const RunnerConfig& runner_config,
                                const MinimizeOptions& options) {
  using engine::ScenarioSpec;
  MinimizeResult res;
  res.spec = spec;
  res.outcome = run_scenario(res.spec, runner_config);
  res.attempts = 1;
  TELEMETRY_COUNT("fuzz.minimize_runs", 1);

  /// Runs `cand`; adopts it as the new smallest reproducer iff it still
  /// matches the target outcome class.
  const auto try_accept = [&](const ScenarioSpec& cand) -> bool {
    if (res.attempts >= options.max_attempts) return false;
    if (serialize_scenario(cand) == serialize_scenario(res.spec)) return false;
    try {
      check_readable(cand);
    } catch (const std::invalid_argument&) {
      return false;
    }
    ++res.attempts;
    TELEMETRY_COUNT("fuzz.minimize_runs", 1);
    const RunOutcome outcome = run_scenario(cand, runner_config);
    if (!matches_expect(outcome, target)) return false;
    res.spec = cand;
    res.outcome = outcome;
    ++res.accepted;
    return true;
  };

  bool progressed = true;
  while (progressed && res.attempts < options.max_attempts) {
    progressed = false;

    // Halve the horizon while the finding survives.
    while (res.spec.steps / 2 >= options.min_steps) {
      ScenarioSpec cand = res.spec;
      cand.steps /= 2;
      if (!try_accept(cand)) break;
      progressed = true;
    }

    // Drop senders one at a time (always keeping one).
    for (std::size_t i = 0;
         res.spec.senders.size() > 1 && i < res.spec.senders.size();) {
      ScenarioSpec cand = res.spec;
      cand.senders.erase(cand.senders.begin() + static_cast<long>(i));
      if (try_accept(cand)) {
        progressed = true;
      } else {
        ++i;
      }
    }

    // Shrink cohorts: halve counts toward single senders.
    for (std::size_t i = 0; i < res.spec.senders.size(); ++i) {
      while (res.spec.senders[i].count > 1) {
        ScenarioSpec cand = res.spec;
        cand.senders[i].count /= 2;
        if (!try_accept(cand)) break;
        progressed = true;
      }
    }

    // Prefer a full trace when it still reproduces (a finding that needs
    // aggregate retention keeps the axis, loudly).
    if (res.spec.trace_detail == fluid::TraceDetail::kAggregate) {
      ScenarioSpec cand = res.spec;
      cand.trace_detail = fluid::TraceDetail::kFull;
      if (try_accept(cand)) progressed = true;
    }

    // Drop the injected-loss process entirely, or failing that collapse a
    // structured process to constant loss at its worst rate.
    if (!res.spec.loss.empty()) {
      ScenarioSpec cand = res.spec;
      cand.loss = fluid::LossSpec{};
      if (try_accept(cand)) {
        progressed = true;
      } else if (res.spec.loss.kind != fluid::LossSpec::Kind::kConstant) {
        cand = res.spec;
        fluid::LossSpec constant;
        constant.kind = fluid::LossSpec::Kind::kConstant;
        constant.rate = std::clamp(
            std::max(res.spec.loss.rate, res.spec.loss.bad_rate), 0.0, 0.99);
        cand.loss = constant;
        if (try_accept(cand)) progressed = true;
      }
    }

    // Drop schedule breakpoints one at a time (an empty schedule is the
    // identity, so this subsumes dropping the whole schedule).
    for (auto member : {&ScenarioSpec::bandwidth_scale, &ScenarioSpec::rtt_scale}) {
      for (std::size_t i = 0; i < (res.spec.*member).points.size();) {
        ScenarioSpec cand = res.spec;
        auto& points = (cand.*member).points;
        points.erase(points.begin() + static_cast<long>(i));
        if (try_accept(cand)) {
          progressed = true;
        } else {
          ++i;
        }
      }
    }

    // Round magnitudes to two significant digits and integerize per-sender
    // step offsets, so the checked-in reproducer reads like a hand-written
    // scenario.
    {
      ScenarioSpec cand = res.spec;
      const auto round_link = [](fluid::LinkParams& link) {
        link.bandwidth = Bandwidth::from_mss_per_sec(
            round_sig(link.bandwidth.mss_per_sec(), 2));
        link.propagation_delay =
            Seconds(round_sig(link.propagation_delay.value(), 2));
        link.buffer_mss = round_sig(link.buffer_mss, 2);
      };
      round_link(cand.link);
      for (fluid::LinkParams& link : cand.topology.links) round_link(link);
      for (engine::SenderSlot& sender : cand.senders) {
        sender.initial_window_mss =
            std::max(1.0, std::round(sender.initial_window_mss));
        sender.start_step = std::max(0.0, std::round(sender.start_step));
        if (sender.stop_step >= 0.0) {
          sender.stop_step = std::round(sender.stop_step);
        }
      }
      for (auto member :
           {&ScenarioSpec::bandwidth_scale, &ScenarioSpec::rtt_scale}) {
        for (fluid::Schedule::Point& point : (cand.*member).points) {
          point.scale = round_sig(point.scale, 2);
        }
      }
      if (try_accept(cand)) progressed = true;
    }

    // Canonicalize the seed last: many findings are seed-independent, and a
    // canonical seed dedups reproducers that differ only in RNG state.
    if (res.spec.seed != 1) {
      ScenarioSpec cand = res.spec;
      cand.seed = 1;
      if (try_accept(cand)) progressed = true;
    }
  }

  return res;
}

}  // namespace axiomcc::fuzz
