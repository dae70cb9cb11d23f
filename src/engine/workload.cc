#include "engine/workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cc/registry.h"
#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::engine {
namespace {

/// Upper bound on generated slots: enough for any sane workload, small
/// enough that a degenerate (tiny-off-gap) draw cannot blow up memory.
constexpr std::size_t kMaxGeneratedSlots = 4096;

/// One uniform draw clamped away from 0 so log/pow stay finite.
double positive_uniform(Rng& rng) {
  return std::max(rng.uniform(), 1e-12);
}

/// spec.workload applied to `templates` (spec.senders, or a copy of them
/// with their prototypes filled in).
std::vector<SenderSlot> expand_slots(const ScenarioSpec& spec,
                                     const std::vector<SenderSlot>& templates) {
  const WorkloadSpec& w = spec.workload;
  AXIOMCC_EXPECTS(w.flows >= 1);

  // One stream for the whole expansion, salted off the scenario seed so the
  // generated pattern is independent of the loss injector's stream.
  std::uint64_t salt = spec.seed ^ 0xa0761d6478bd642full;
  Rng rng(splitmix64_next(salt));

  const double horizon = static_cast<double>(spec.steps);
  std::vector<SenderSlot> out;
  for (const SenderSlot& tmpl : templates) {
    for (long j = 0; j < w.flows && out.size() < kMaxGeneratedSlots; ++j) {
      if (w.kind == WorkloadKind::kIncast) {
        SenderSlot slot = tmpl;
        slot.start_step =
            tmpl.start_step + rng.uniform() * std::max(w.spread_steps, 0.0);
        if (slot.stop_step >= 0.0 && slot.stop_step <= slot.start_step + 1.0) {
          continue;  // the spread pushed this arrival past its own stop
        }
        out.push_back(std::move(slot));
        continue;
      }
      // On-off heavy tail: alternate bounded-Pareto on-periods (mean
      // mean_on_steps for alpha > 1) with exponential off-gaps until the
      // slot's horizon. Each on-period becomes its own slot.
      AXIOMCC_EXPECTS(w.mean_on_steps > 0.0 && w.mean_off_steps > 0.0);
      AXIOMCC_EXPECTS(w.alpha > 0.0);
      const double slot_end =
          tmpl.stop_step < 0.0 ? horizon : std::min(tmpl.stop_step, horizon);
      // Pareto scale x_m giving the requested mean (alpha ≤ 1 has no mean;
      // fall back to the mean itself as the scale).
      const double x_m = w.alpha > 1.0
                             ? w.mean_on_steps * (w.alpha - 1.0) / w.alpha
                             : w.mean_on_steps;
      double t = tmpl.start_step + rng.uniform() * w.mean_off_steps;
      while (t + 1.0 < slot_end && out.size() < kMaxGeneratedSlots) {
        double on = x_m / std::pow(positive_uniform(rng), 1.0 / w.alpha);
        // Bound the tail at 64 means so one draw cannot eat the horizon.
        on = std::clamp(on, 1.0, 64.0 * w.mean_on_steps);
        SenderSlot slot = tmpl;
        slot.start_step = t;
        slot.stop_step = std::min(t + on, slot_end);
        out.push_back(std::move(slot));
        const double off = -w.mean_off_steps * std::log(positive_uniform(rng));
        t = std::min(t + on, slot_end) + std::max(off, 1.0);
      }
    }
  }
  return out;
}

}  // namespace

std::vector<SenderSlot> expand_workload(const ScenarioSpec& spec) {
  if (spec.workload.empty()) return spec.senders;
  return expand_slots(spec, spec.senders);
}

RunSlots make_run_slots(const ScenarioSpec& spec) {
  RunSlots run;
  std::vector<SenderSlot> templates = spec.senders;
  for (SenderSlot& slot : templates) {
    if (slot.prototype != nullptr) continue;
    run.protocols.push_back(cc::make_protocol(slot.protocol));
    slot.prototype = run.protocols.back().get();
  }
  run.slots = spec.workload.empty() ? std::move(templates)
                                    : expand_slots(spec, templates);
  if (run.slots.empty()) {
    throw ScenarioError("workload expansion produced no senders");
  }
  return run;
}

}  // namespace axiomcc::engine
