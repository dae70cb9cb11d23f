#include "recorder/align.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <tuple>

namespace axiomcc::recorder {

namespace {

/// Discrete events compare by presence: a schedule breakpoint, churn
/// transition, run-lane loss transition, or guard trip missing from one
/// side at a step is a divergence. Sampled values (windows, checks)
/// compare by magnitude instead.
bool is_discrete(const Event& e) {
  switch (e.cls) {
    case EventClass::kSchedule:
    case EventClass::kChurn:
      return true;
    case EventClass::kGuard:
      return e.code == EventCode::kTrip;
    case EventClass::kLoss:
      // Cohort-lane loss detail (injected-loss transitions) is only
      // observable on the fluid side, so presence there is not comparable.
      return e.subject_kind == Subject::kRun;
    case EventClass::kWindow:
    case EventClass::kCohort:
    case EventClass::kMetric:
      return false;
  }
  return false;
}

bool is_sampled_value(const Event& e) {
  if (e.cls == EventClass::kWindow) return true;
  // Metric windows compare by magnitude. The denominator below is floored
  // at 1, so a 0-valued window (a fairness collapse both sides agree on)
  // compares at absolute scale and never reads as divergence against
  // another near-zero value.
  if (e.cls == EventClass::kMetric) return true;
  return e.cls == EventClass::kGuard && e.code == EventCode::kCheck;
}

using DiscreteKey = std::tuple<EventClass, EventCode, Subject, int>;
using ValueKey = std::tuple<EventClass, EventCode, Subject, int>;

std::string describe_key(const DiscreteKey& key) {
  const auto& [cls, code, kind, subject] = key;
  std::string out = std::string(event_class_name(cls)) + "/" +
                    event_code_name(code) + " on " + subject_name(kind);
  if (kind != Subject::kRun) {
    out += ' ';
    out += std::to_string(subject);
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

struct StepView {
  std::vector<DiscreteKey> discrete;
  std::map<ValueKey, double> values;
};

/// Events bucketed by step, restricted to the enabled classes.
std::map<long, StepView> bucket_by_step(const Recording& r, unsigned classes,
                                        long start, long horizon) {
  std::map<long, StepView> out;
  for (const Event& e : r.events) {
    if ((classes & class_bit(e.cls)) == 0) continue;
    if (e.step < start || e.step >= horizon) continue;
    StepView& view = out[e.step];
    if (is_discrete(e)) {
      view.discrete.emplace_back(e.cls, e.code, e.subject_kind, e.subject);
    } else if (is_sampled_value(e)) {
      view.values[{e.cls, e.code, e.subject_kind, e.subject}] = e.a;
    }
  }
  for (auto& [step, view] : out) {
    std::sort(view.discrete.begin(), view.discrete.end());
  }
  return out;
}

/// First comparable step: a side whose rings evicted events can only be
/// compared from its earliest retained event onward.
long truncation_floor(const Recording& r) {
  if (r.dropped == 0 || r.events.empty()) return 0;
  long min_step = r.events.front().step;
  for (const Event& e : r.events) min_step = std::min(min_step, e.step);
  return min_step;
}

std::vector<Event> context_window(const Recording& r, unsigned classes,
                                  long center, long context) {
  std::vector<Event> out;
  for (const Event& e : r.events) {
    if ((classes & class_bit(e.cls)) == 0) continue;
    if (e.step >= center - context && e.step <= center + context) {
      out.push_back(e);
    }
  }
  return out;
}

}  // namespace

AlignResult align_recordings(const Recording& left, const Recording& right,
                             const AlignOptions& options) {
  AlignResult result;
  const unsigned classes =
      options.classes & left.options.classes & right.options.classes;

  const long start =
      std::max(truncation_floor(left), truncation_floor(right));
  const long horizon = std::min(left.steps, right.steps);
  result.compare_start = start;
  result.steps_compared = std::max(0L, horizon - start);

  const std::map<long, StepView> lhs =
      bucket_by_step(left, classes, start, horizon);
  const std::map<long, StepView> rhs =
      bucket_by_step(right, classes, start, horizon);

  std::set<long> steps;
  for (const auto& [step, view] : lhs) steps.insert(step);
  for (const auto& [step, view] : rhs) steps.insert(step);

  static const StepView kEmpty;
  for (const long step : steps) {
    const auto lit = lhs.find(step);
    const auto rit = rhs.find(step);
    const StepView& lv = lit == lhs.end() ? kEmpty : lit->second;
    const StepView& rv = rit == rhs.end() ? kEmpty : rit->second;

    // Presence comparison for discrete events.
    if (lv.discrete != rv.discrete) {
      std::vector<DiscreteKey> only_left;
      std::set_difference(lv.discrete.begin(), lv.discrete.end(),
                          rv.discrete.begin(), rv.discrete.end(),
                          std::back_inserter(only_left));
      const bool from_left = !only_left.empty();
      DiscreteKey witness;
      if (from_left) {
        witness = only_left.front();
      } else {
        std::vector<DiscreteKey> only_right;
        std::set_difference(rv.discrete.begin(), rv.discrete.end(),
                            lv.discrete.begin(), lv.discrete.end(),
                            std::back_inserter(only_right));
        witness = only_right.front();
      }
      result.diverged = true;
      result.first_divergence_step = step;
      result.trigger = std::get<0>(witness);
      result.reason = "step " + std::to_string(step) + ": " +
                      (from_left ? "left" : "right") + " has " +
                      describe_key(witness) + "; the other side does not";
      break;
    }

    // Magnitude comparison for values sampled on both sides.
    bool value_diverged = false;
    for (const auto& [key, lval] : lv.values) {
      const auto rfound = rv.values.find(key);
      if (rfound == rv.values.end()) continue;
      const double rval = rfound->second;
      const double gap = std::abs(lval - rval) /
                         std::max({1.0, std::abs(lval), std::abs(rval)});
      if (gap > options.tolerance) {
        result.diverged = true;
        result.first_divergence_step = step;
        result.trigger = std::get<0>(key);
        result.reason = "step " + std::to_string(step) + ": " +
                        describe_key(key) + " differs, " + fmt_double(lval) +
                        " vs " + fmt_double(rval) + " (gap " +
                        fmt_double(gap) + " > tol " +
                        fmt_double(options.tolerance) + ")";
        value_diverged = true;
        break;
      }
    }
    if (value_diverged) break;
  }

  // Nothing diverged inside the shared horizon, but one run ended early
  // (typically a guard trip): that end is itself the divergence point.
  if (!result.diverged && left.steps != right.steps && left.steps > 0 &&
      right.steps > 0) {
    result.diverged = true;
    result.first_divergence_step = horizon;
    const Recording& shorter = left.steps < right.steps ? left : right;
    bool tripped = false;
    for (const Event& e : shorter.events) {
      if (e.cls == EventClass::kGuard && e.code == EventCode::kTrip) {
        tripped = true;
        break;
      }
    }
    result.trigger = tripped ? EventClass::kGuard : EventClass::kChurn;
    result.reason = "run lengths differ: left observed " +
                    std::to_string(left.steps) + " steps, right " +
                    std::to_string(right.steps) +
                    (tripped ? " (guard trip on the shorter side)" : "");
  }

  if (result.diverged) {
    result.left_events = context_window(left, classes,
                                        result.first_divergence_step,
                                        options.context);
    result.right_events = context_window(right, classes,
                                         result.first_divergence_step,
                                         options.context);
  }
  return result;
}

}  // namespace axiomcc::recorder
