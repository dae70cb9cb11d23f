#include "core/extra_metrics.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fluid/sim.h"
#include "util/check.h"
#include "util/stats.h"

namespace axiomcc::core {

long measure_responsiveness(const cc::Protocol& prototype,
                            const EvalConfig& cfg, double target_fraction) {
  cfg.validate();
  AXIOMCC_EXPECTS(target_fraction > 0.0 && target_fraction <= 1.0);

  const long switch_step = cfg.steps / 2;
  AXIOMCC_EXPECTS(switch_step > 0);

  fluid::SimOptions opt;
  opt.steps = cfg.steps;
  fluid::FluidSimulation sim(cfg.link, opt);
  sim.add_sender(prototype, 1.0);
  sim.set_bandwidth_schedule(fluid::Schedule{{{switch_step, 2.0}}});
  const fluid::Trace trace = sim.run();

  const double new_capacity = 2.0 * trace.link_capacity_mss();
  const double target = target_fraction * new_capacity;
  const auto windows = trace.windows(0);
  for (long t = switch_step; t < cfg.steps; ++t) {
    if (windows[static_cast<std::size_t>(t)] >= target) {
      return t - switch_step;
    }
  }
  return cfg.steps - switch_step;  // never refilled within the horizon
}

double measure_smoothness(const fluid::Trace& trace,
                          const EstimatorConfig& cfg) {
  double change_sum = 0.0;
  std::size_t samples = 0;
  for (int i = 0; i < trace.num_senders(); ++i) {
    const auto tail = tail_view(trace.windows(i), cfg.tail_fraction);
    for (std::size_t t = 1; t < tail.size(); ++t) {
      if (tail[t - 1] <= 0.0) continue;
      change_sum += std::fabs(tail[t] - tail[t - 1]) / tail[t - 1];
      ++samples;
    }
  }
  if (samples == 0) return 1.0;
  return std::clamp(1.0 - change_sum / static_cast<double>(samples), 0.0, 1.0);
}

double measure_jain_fairness(const fluid::Trace& trace,
                             const EstimatorConfig& cfg) {
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(trace.num_senders()));
  for (int i = 0; i < trace.num_senders(); ++i) {
    means.push_back(mean_of(tail_view(trace.windows(i), cfg.tail_fraction)));
  }
  return jain_index(means);
}

}  // namespace axiomcc::core
