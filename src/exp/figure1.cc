#include "exp/figure1.h"

#include <utility>

#include "cc/aimd.h"
#include "core/theory.h"
#include "telemetry/telemetry.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

std::vector<core::Figure1Point> figure1_grid() {
  const std::vector<double> alphas{0.5, 1.0, 2.0, 4.0};
  const std::vector<double> betas{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
  return core::figure1_surface(alphas, betas);
}

std::vector<Figure1Verification> verify_attainment(const core::EvalConfig& cfg,
                                                   long jobs) {
  // Sample of (α, β) pairs across the surface. Each task builds its own
  // AIMD(α, β), so no protocol state crosses threads.
  const std::vector<std::pair<double, double>> samples{
      {0.5, 0.5}, {1.0, 0.5}, {1.0, 0.8}, {2.0, 0.5}, {2.0, 0.7}, {4.0, 0.9}};

  return parallel_map(
      samples,
      [&](const std::pair<double, double>& sample) {
        const auto [alpha, beta] = sample;
        TELEMETRY_SPAN("exp.figure1",
                       "aimd(" + std::to_string(alpha) + "," +
                           std::to_string(beta) + ")");
        TELEMETRY_COUNT("exp.figure1.samples", 1);
        const cc::Aimd proto(alpha, beta);
        Figure1Verification v;
        v.analytic = core::Figure1Point{
            alpha, beta,
            core::theory::thm2_friendliness_upper_bound(alpha, beta)};
        v.measured_fast_utilization =
            core::measure_fast_utilization_score(proto, cfg);
        const fluid::Trace shared = core::run_shared_link(proto, cfg);
        v.measured_efficiency =
            core::measure_efficiency(shared, cfg.estimator());
        v.measured_friendliness =
            core::measure_tcp_friendliness_score(proto, cfg);
        return v;
      },
      jobs);
}

std::vector<std::size_t> frontier_of(
    const std::vector<core::Figure1Point>& points) {
  std::vector<std::vector<double>> oriented;
  oriented.reserve(points.size());
  for (const auto& p : points) {
    oriented.push_back(
        {p.fast_utilization_alpha, p.efficiency_beta, p.tcp_friendliness});
  }
  return core::pareto_frontier_indices(oriented);
}

}  // namespace axiomcc::exp
