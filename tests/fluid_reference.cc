#include "fluid_reference.h"

#include <algorithm>
#include <memory>

namespace axiomcc::fluid {

Trace run_reference(const LinkParams& link_params, const SimOptions& options,
                    const std::vector<ReferenceGroup>& groups,
                    LossInjector* injector) {
  const FluidLink link(link_params);
  std::vector<std::unique_ptr<cc::Protocol>> protocols;
  std::vector<const SenderSpec*> specs;
  for (const ReferenceGroup& group : groups) {
    for (long j = 0; j < group.count; ++j) {
      protocols.push_back(group.spec.protocol->clone());
      specs.push_back(&group.spec);
    }
  }
  const auto n = static_cast<int>(specs.size());
  Trace trace =
      options.trace_detail == TraceDetail::kAggregate
          ? Trace(n, link.capacity_mss(), link.min_rtt().value(),
                  TraceDetail::kAggregate,
                  default_tracked_senders(n, options.tracked_senders))
          : Trace(n, link.capacity_mss(), link.min_rtt().value());

  const auto clamp_window = [&](double w) {
    return std::clamp(w, options.min_window_mss, options.max_window_mss);
  };
  const auto active_at = [](const SenderSpec& spec, long step) {
    return step >= spec.start_step &&
           (spec.stop_step < 0 || step < spec.stop_step);
  };

  std::vector<double> windows(specs.size());
  for (int i = 0; i < n; ++i) {
    windows[i] = active_at(*specs[i], 0)
                     ? clamp_window(specs[i]->initial_window_mss)
                     : 0.0;
  }
  std::vector<double> observed(specs.size());
  std::vector<double> next(specs.size());

  for (long step = 0; step < options.steps; ++step) {
    // Churn: joiners restart from their initial window; leavers drop to 0.
    for (int i = 0; i < n; ++i) {
      if (!active_at(*specs[i], step)) {
        windows[i] = 0.0;
      } else if (step == specs[i]->start_step && step != 0) {
        windows[i] = clamp_window(specs[i]->initial_window_mss);
      }
    }

    double total = 0.0;
    for (const double w : windows) total += w;
    const double congestion_loss = link.loss_rate(total);
    const double rtt = link.rtt(total).value();

    for (int i = 0; i < n; ++i) {
      if (!active_at(*specs[i], step)) {
        observed[i] = 0.0;
        continue;
      }
      const double injected =
          injector != nullptr ? injector->sample(step, i) : 0.0;
      observed[i] = combine_loss(congestion_loss, injected);
    }
    trace.add_step(windows, rtt, congestion_loss, observed);

    for (int i = 0; i < n; ++i) {
      next[i] = active_at(*specs[i], step)
                    ? clamp_window(protocols[i]->next_window(
                          {windows[i], observed[i], rtt}))
                    : 0.0;
    }
    windows.swap(next);
  }
  return trace;
}

}  // namespace axiomcc::fluid
