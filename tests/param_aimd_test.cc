// Property-style parameterized sweep: across an (a, b) grid and several link
// shapes, AIMD's measured scores must track the Table 1 closed forms.
#include <tuple>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "core/evaluator.h"
#include "core/theory.h"

namespace axiomcc::core {
namespace {

class AimdGrid : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  [[nodiscard]] double a() const { return std::get<0>(GetParam()); }
  [[nodiscard]] double b() const { return std::get<1>(GetParam()); }

  [[nodiscard]] EvalConfig config() const {
    EvalConfig cfg;
    cfg.steps = 3000;
    return cfg;
  }
};

TEST_P(AimdGrid, EfficiencyMatchesTable1) {
  const cc::Aimd proto(a(), b());
  const EvalConfig cfg = config();
  const fluid::Trace t = run_shared_link(proto, cfg);
  const double expected = theory::aimd_efficiency(b(), 105.0, 100.0);
  EXPECT_NEAR(measure_efficiency(t, cfg.estimator()), expected,
              0.03 + a() / 100.0);
}

TEST_P(AimdGrid, LossStaysWithinTable1Bound) {
  const cc::Aimd proto(a(), b());
  const EvalConfig cfg = config();
  const fluid::Trace t = run_shared_link(proto, cfg);
  const double bound =
      theory::aimd_loss_bound(a(), 105.0, 100.0, cfg.num_senders);
  EXPECT_LE(measure_loss_avoidance(t, cfg.estimator()), bound * 1.05);
}

TEST_P(AimdGrid, ConvergenceMatchesTable1) {
  const cc::Aimd proto(a(), b());
  const EvalConfig cfg = config();
  const fluid::Trace t = run_shared_link(proto, cfg);
  EXPECT_NEAR(measure_convergence(t, cfg.estimator()),
              theory::aimd_convergence(b()), 0.05);
}

TEST_P(AimdGrid, FairnessConvergesToOne) {
  const cc::Aimd proto(a(), b());
  const EvalConfig cfg = config();
  const fluid::Trace t = run_shared_link(proto, cfg);
  EXPECT_GT(measure_fairness(t, cfg.estimator()), 0.93);
}

TEST_P(AimdGrid, FastUtilizationEqualsA) {
  const cc::Aimd proto(a(), b());
  EXPECT_NEAR(measure_fast_utilization_score(proto, config()), a(),
              a() * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AimdGrid,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(0.3, 0.5, 0.7, 0.875)),
    [](const auto& p) {
      std::string name = "a";
      name += std::to_string(static_cast<int>(std::get<0>(p.param) * 10));
      name += "_b";
      name += std::to_string(static_cast<int>(std::get<1>(p.param) * 1000));
      return name;
    });

/// Link-shape sweep at fixed AIMD(1, 0.5): the efficiency formula's
/// dependence on τ/C must hold across bandwidths and buffers.
class LinkGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LinkGrid, RenoEfficiencyTracksBufferToCapacityRatio) {
  const double mbps = std::get<0>(GetParam());
  const double buffer = std::get<1>(GetParam());

  EvalConfig cfg;
  cfg.link = fluid::make_link_mbps(mbps, 42.0, buffer);
  cfg.steps = 4000;

  const fluid::FluidLink link(cfg.link);
  const cc::Aimd reno(1.0, 0.5);
  const fluid::Trace t = run_shared_link(reno, cfg);
  const double expected =
      theory::aimd_efficiency(0.5, link.capacity_mss(), buffer);
  EXPECT_NEAR(measure_efficiency(t, cfg.estimator()), expected, 0.04)
      << "mbps=" << mbps << " buffer=" << buffer;
}

TEST_P(LinkGrid, RenoLatencyInflationIsBufferOverCapacity) {
  const double mbps = std::get<0>(GetParam());
  const double buffer = std::get<1>(GetParam());

  EvalConfig cfg;
  cfg.link = fluid::make_link_mbps(mbps, 42.0, buffer);
  cfg.steps = 4000;

  const fluid::FluidLink link(cfg.link);
  const cc::Aimd reno(1.0, 0.5);
  const fluid::Trace t = run_shared_link(reno, cfg);
  const double expected = buffer / link.capacity_mss();
  EXPECT_NEAR(measure_latency_avoidance(t, cfg.estimator()), expected,
              expected * 0.1 + 0.02)
      << "mbps=" << mbps << " buffer=" << buffer;
}

INSTANTIATE_TEST_SUITE_P(
    Links, LinkGrid,
    ::testing::Combine(::testing::Values(20.0, 30.0, 60.0, 100.0),
                       ::testing::Values(10.0, 100.0)),
    [](const auto& p) {
      return "bw" + std::to_string(static_cast<int>(std::get<0>(p.param))) +
             "_buf" + std::to_string(static_cast<int>(std::get<1>(p.param)));
    });

}  // namespace
}  // namespace axiomcc::core
