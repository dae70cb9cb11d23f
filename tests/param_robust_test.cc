// Parameterized sweeps for Robust-AIMD: its robustness score equals eps
// across the grid, its efficiency/friendliness follow the Table 1 forms, and
// the robustness/friendliness trade is monotone — the paper's Section 5.2
// claims as properties.
#include <tuple>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/pcc.h"
#include "cc/robust_aimd.h"
#include "core/evaluator.h"
#include "core/theory.h"

namespace axiomcc::core {
namespace {

EvalConfig base_config() {
  EvalConfig cfg;
  cfg.steps = 3000;
  return cfg;
}

class RobustGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {
 protected:
  // (b, eps); a fixed at the paper's 1.
  [[nodiscard]] double b() const { return std::get<0>(GetParam()); }
  [[nodiscard]] double eps() const { return std::get<1>(GetParam()); }
};

TEST_P(RobustGrid, RobustnessScoreEqualsEps) {
  const cc::RobustAimd proto(1.0, b(), eps());
  const double measured = measure_robustness_score(proto, base_config());
  EXPECT_NEAR(measured, eps(), eps() * 0.15)
      << "Robust-AIMD(1," << b() << "," << eps() << ")";
}

TEST_P(RobustGrid, SurvivesRandomLossThatKillsAimd) {
  const EvalConfig cfg = base_config();
  fluid::LinkParams huge = cfg.link;
  huge.bandwidth = Bandwidth::from_mss_per_sec(1e15);
  huge.buffer_mss = 1e15;

  const double injected = eps() * 0.8;  // below tolerance

  const auto final_window = [&](const cc::Protocol& proto) {
    fluid::FluidSimulation sim(huge, fluid::SimOptions{2000, 1.0, 1e9});
    sim.add_sender(proto, 1.0);
    sim.set_loss_injector(std::make_unique<fluid::ConstantLoss>(injected));
    return sim.run().windows(0).back();
  };

  EXPECT_GT(final_window(cc::RobustAimd(1.0, b(), eps())), 1500.0);
  EXPECT_LT(final_window(cc::Aimd(1.0, b())), 50.0);
}

TEST_P(RobustGrid, EfficiencyAtLeastPlainAimd) {
  const EvalConfig cfg = base_config();
  const fluid::Trace robust =
      run_shared_link(cc::RobustAimd(1.0, b(), eps()), cfg);
  const fluid::Trace plain = run_shared_link(cc::Aimd(1.0, b()), cfg);
  EXPECT_GE(measure_efficiency(robust, cfg.estimator()),
            measure_efficiency(plain, cfg.estimator()) - 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RobustGrid,
    ::testing::Combine(::testing::Values(0.5, 0.8),
                       ::testing::Values(0.005, 0.01, 0.05)),
    [](const auto& p) {
      std::string name = "b";
      name += std::to_string(static_cast<int>(std::get<0>(p.param) * 10));
      name += "_eps";
      name += std::to_string(static_cast<int>(std::get<1>(p.param) * 1000));
      return name;
    });

TEST(RobustAimdProperties, FriendlinessDecreasesAsToleranceGrows) {
  const EvalConfig cfg = base_config();
  double previous = measure_tcp_friendliness_score(cc::Aimd(1.0, 0.8), cfg);
  for (double eps : {0.005, 0.01, 0.05}) {
    const double f =
        measure_tcp_friendliness_score(cc::RobustAimd(1.0, 0.8, eps), cfg);
    EXPECT_LE(f, previous * 1.1) << "eps=" << eps;
    previous = f;
  }
}

TEST(RobustAimdProperties, FriendlinessImprovesWithMoreRobustConnections) {
  // The paper: "its TCP-friendliness is monotone in the number of
  // Robust-AIMD connections".
  EvalConfig cfg = base_config();
  cfg.steps = 4000;
  const cc::RobustAimd proto(1.0, 0.8, 0.01);

  double previous = 0.0;
  for (int n_protocol : {1, 2, 3}) {
    cfg.num_protocol_senders = n_protocol;
    const double f = measure_tcp_friendliness_score(proto, cfg);
    EXPECT_GE(f, previous * 0.9) << "n_protocol=" << n_protocol;
    previous = f;
  }
}

TEST(RobustAimdProperties, FriendlierThanPccProxyAndPcc) {
  // The design goal: robust performance at far lower aggression than PCC.
  const EvalConfig cfg = base_config();
  const double robust =
      measure_tcp_friendliness_score(cc::RobustAimd(1.0, 0.8, 0.01), cfg);
  const double pcc = measure_tcp_friendliness_score(cc::PccAllegro(), cfg);
  EXPECT_GT(robust, pcc * 1.5);
}

TEST(RobustAimdProperties, OutperformsAimdUnderLossWithoutPccAggression) {
  // Robustness sits between AIMD (0) and PCC (~0.05+).
  const EvalConfig cfg = base_config();
  const double aimd = measure_robustness_score(cc::Aimd(1.0, 0.8), cfg);
  const double robust =
      measure_robustness_score(cc::RobustAimd(1.0, 0.8, 0.01), cfg);
  const double pcc = measure_robustness_score(cc::PccAllegro(), cfg);
  EXPECT_LT(aimd, robust);
  EXPECT_LT(robust, pcc);
}

}  // namespace
}  // namespace axiomcc::core
