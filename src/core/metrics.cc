#include "core/metrics.h"

#include <algorithm>
#include <vector>

#include "scope/scope.h"
#include "util/check.h"
#include "util/stats.h"

namespace axiomcc::core {

namespace {

[[nodiscard]] std::span<const double> tail_of(std::span<const double> xs,
                                              const EstimatorConfig& cfg) {
  auto tail = tail_view(xs, cfg.tail_fraction);
  AXIOMCC_EXPECTS_MSG(!tail.empty(), "trace too short for the tail fraction");
  return tail;
}

}  // namespace

double measure_efficiency(const fluid::Trace& trace,
                          const EstimatorConfig& cfg) {
  const auto tail = tail_of(trace.total_window(), cfg);
  return scope::efficiency(min_of(tail), trace.link_capacity_mss());
}

double measure_loss_avoidance(const fluid::Trace& trace,
                              const EstimatorConfig& cfg) {
  const auto tail = tail_of(trace.congestion_loss(), cfg);
  return max_of(tail);
}

double measure_mean_loss(const fluid::Trace& trace,
                         const EstimatorConfig& cfg) {
  const auto tail = tail_of(trace.congestion_loss(), cfg);
  return mean_of(tail);
}

double measure_fairness(const fluid::Trace& trace, const EstimatorConfig& cfg) {
  std::vector<double> means;
  for (int i = 0; i < trace.num_senders(); ++i) {
    means.push_back(mean_of(tail_of(trace.windows(i), cfg)));
  }
  return scope::fairness(means);
}

double measure_convergence(const fluid::Trace& trace,
                           const EstimatorConfig& cfg) {
  if (cfg.outlier_fraction > 0.0) {
    // A percentile of the per-sample deviations: no fixed-size statistic
    // holds it, so this path keeps every sample.
    std::vector<double> deviations;
    for (int i = 0; i < trace.num_senders(); ++i) {
      const auto tail = tail_of(trace.windows(i), cfg);
      const double star = mean_of(tail);
      if (star <= 0.0) continue;
      for (double x : tail) {
        const double ratio = x / star;
        // x in [αx*, (2−α)x*]  ⇔  α <= min(ratio, 2 − ratio).
        deviations.push_back(std::min(ratio, 2.0 - ratio));
      }
    }
    if (deviations.empty()) return 1.0;
    return std::clamp(
        percentile(std::move(deviations), cfg.outlier_fraction * 100.0), 0.0,
        1.0);
  }
  double alpha = 1.0;
  for (int i = 0; i < trace.num_senders(); ++i) {
    const auto tail = tail_of(trace.windows(i), cfg);
    double sum = 0.0;
    double lo = tail.front();
    double hi = tail.front();
    for (const double x : tail) {
      sum += x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    alpha = std::min(alpha, scope::convergence_band(
                                sum, lo, hi, static_cast<long>(tail.size())));
  }
  return alpha;
}

double measure_latency_avoidance(const fluid::Trace& trace,
                                 const EstimatorConfig& cfg) {
  const auto tail = tail_of(trace.rtt_seconds(), cfg);
  const double base = trace.min_rtt_seconds();
  AXIOMCC_EXPECTS(base > 0.0);
  return scope::latency_avoidance(max_of(tail), base);
}

double measure_friendliness(const fluid::Trace& trace,
                            std::span<const int> p_senders,
                            std::span<const int> q_senders,
                            const EstimatorConfig& cfg) {
  AXIOMCC_EXPECTS(!p_senders.empty() && !q_senders.empty());
  std::vector<double> means;  // P first, then Q
  means.reserve(p_senders.size() + q_senders.size());
  for (const auto senders : {p_senders, q_senders}) {
    for (const int i : senders) {
      means.push_back(mean_of(tail_of(trace.windows(i), cfg)));
    }
  }
  return scope::friendliness(means, p_senders.size());
}

double fast_utilization_coefficient(std::span<const double> windows,
                                    long warmup_steps) {
  AXIOMCC_EXPECTS(warmup_steps >= 0);
  AXIOMCC_EXPECTS(windows.size() > static_cast<std::size_t>(warmup_steps) + 1);
  return scope::fast_utilization(windows, warmup_steps, 0.0);
}

double tail_goodput(const fluid::Trace& trace, int sender,
                    const EstimatorConfig& cfg) {
  const auto windows = tail_of(trace.windows(sender), cfg);
  const auto losses = tail_of(trace.observed_loss(sender), cfg);
  AXIOMCC_EXPECTS(windows.size() == losses.size());
  double sum = 0.0;
  for (std::size_t t = 0; t < windows.size(); ++t) {
    sum += windows[t] * (1.0 - losses[t]);
  }
  return sum / static_cast<double>(windows.size());
}

}  // namespace axiomcc::core
