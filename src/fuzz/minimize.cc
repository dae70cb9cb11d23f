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

MinimizeResult minimize_finding(const ScenarioDesc& desc,
                                const ExpectDesc& target,
                                const RunnerConfig& runner_config,
                                const MinimizeOptions& options) {
  MinimizeResult res;
  res.desc = desc;
  res.desc.expect = ExpectDesc{};
  res.outcome = run_scenario(res.desc, runner_config);
  res.attempts = 1;
  TELEMETRY_COUNT("fuzz.minimize_runs", 1);

  /// Runs `cand`; adopts it as the new smallest reproducer iff it still
  /// matches the target outcome class.
  const auto try_accept = [&](const ScenarioDesc& cand) -> bool {
    if (res.attempts >= options.max_attempts) return false;
    if (cand == res.desc) return false;
    try {
      validate_scenario(cand);
    } catch (const std::invalid_argument&) {
      return false;
    }
    ++res.attempts;
    TELEMETRY_COUNT("fuzz.minimize_runs", 1);
    const RunOutcome outcome = run_scenario(cand, runner_config);
    if (!matches_expect(outcome, target)) return false;
    res.desc = cand;
    res.outcome = outcome;
    ++res.accepted;
    return true;
  };

  bool progressed = true;
  while (progressed && res.attempts < options.max_attempts) {
    progressed = false;

    // Halve the horizon while the finding survives.
    while (res.desc.steps / 2 >= options.min_steps) {
      ScenarioDesc cand = res.desc;
      cand.steps /= 2;
      if (!try_accept(cand)) break;
      progressed = true;
    }

    // Drop senders one at a time (always keeping one).
    for (std::size_t i = 0;
         res.desc.senders.size() > 1 && i < res.desc.senders.size();) {
      ScenarioDesc cand = res.desc;
      cand.senders.erase(cand.senders.begin() + static_cast<long>(i));
      if (try_accept(cand)) {
        progressed = true;
      } else {
        ++i;
      }
    }

    // Shrink cohorts: halve counts toward single senders.
    for (std::size_t i = 0; i < res.desc.senders.size(); ++i) {
      while (res.desc.senders[i].count > 1) {
        ScenarioDesc cand = res.desc;
        cand.senders[i].count /= 2;
        if (!try_accept(cand)) break;
        progressed = true;
      }
    }

    // Prefer a full trace when it still reproduces (a finding that needs
    // aggregate retention keeps the axis, loudly).
    if (res.desc.aggregate_trace) {
      ScenarioDesc cand = res.desc;
      cand.aggregate_trace = false;
      if (try_accept(cand)) progressed = true;
    }

    // Drop the injected-loss process entirely, or failing that collapse a
    // structured process to constant loss at its worst rate.
    if (!res.desc.loss.empty()) {
      ScenarioDesc cand = res.desc;
      cand.loss = fluid::LossSpec{};
      if (try_accept(cand)) {
        progressed = true;
      } else if (res.desc.loss.kind != fluid::LossSpec::Kind::kConstant) {
        cand = res.desc;
        fluid::LossSpec constant;
        constant.kind = fluid::LossSpec::Kind::kConstant;
        constant.rate = std::clamp(
            std::max(res.desc.loss.rate, res.desc.loss.bad_rate), 0.0, 0.99);
        cand.loss = constant;
        if (try_accept(cand)) progressed = true;
      }
    }

    // Drop schedule breakpoints one at a time (an empty schedule is the
    // identity, so this subsumes dropping the whole schedule).
    for (auto member : {&ScenarioDesc::bandwidth_scale, &ScenarioDesc::rtt_scale}) {
      for (std::size_t i = 0; i < (res.desc.*member).points.size();) {
        ScenarioDesc cand = res.desc;
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
      ScenarioDesc cand = res.desc;
      cand.bandwidth_mbps = round_sig(cand.bandwidth_mbps, 2);
      cand.rtt_ms = round_sig(cand.rtt_ms, 2);
      cand.buffer_mss = round_sig(cand.buffer_mss, 2);
      for (SenderDesc& sender : cand.senders) {
        sender.initial_window_mss =
            std::max(1.0, std::round(sender.initial_window_mss));
        sender.start_step = std::max(0.0, std::round(sender.start_step));
        if (sender.stop_step >= 0.0) {
          sender.stop_step = std::round(sender.stop_step);
        }
      }
      for (auto member :
           {&ScenarioDesc::bandwidth_scale, &ScenarioDesc::rtt_scale}) {
        for (fluid::Schedule::Point& point : (cand.*member).points) {
          point.scale = round_sig(point.scale, 2);
        }
      }
      if (try_accept(cand)) progressed = true;
    }

    // Canonicalize the seed last: many findings are seed-independent, and a
    // canonical seed dedups reproducers that differ only in RNG state.
    if (res.desc.seed != 1) {
      ScenarioDesc cand = res.desc;
      cand.seed = 1;
      if (try_accept(cand)) progressed = true;
    }
  }

  return res;
}

}  // namespace axiomcc::fuzz
