// End-to-end tests for the evaluator: the measured 8-tuples of the Table 1
// protocols must agree with the closed-form theory on the paper's link.
#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <ostream>
#include <string>

#include "cc/aimd.h"
#include "cc/cautious_probe.h"
#include "cc/mimd.h"
#include "cc/pcc.h"
#include "cc/presets.h"
#include "cc/robust_aimd.h"
#include "cc/vegas.h"
#include "core/extra_metrics.h"
#include "core/theory.h"
#include "engine/scenario.h"

namespace axiomcc::core {
namespace {

EvalConfig fast_config() {
  EvalConfig cfg;  // 30 Mbps / 42 ms / 100 MSS, 2 senders
  cfg.steps = 4000;
  return cfg;
}

TEST(Evaluator, RenoMatchesTable1Theory) {
  const cc::Aimd reno(1.0, 0.5);
  const MetricReport m = evaluate_protocol(reno, fast_config());

  // Efficiency: min(1, b(1+τ/C)) = 0.976.
  EXPECT_NEAR(m.efficiency, theory::aimd_efficiency(0.5, 105.0, 100.0), 0.02);
  // Loss bound: 1 − (C+τ)/(C+τ+na) with n=2, a=1.
  EXPECT_LE(m.loss_avoidance, theory::aimd_loss_bound(1.0, 105.0, 100.0, 2) * 1.05);
  EXPECT_GT(m.loss_avoidance, 0.0);
  // Fast-utilization = a.
  EXPECT_NEAR(m.fast_utilization, 1.0, 0.05);
  // Synchronized AIMD equalizes.
  EXPECT_NEAR(m.fairness, 1.0, 0.02);
  // Convergence 2b/(1+b) = 2/3.
  EXPECT_NEAR(m.convergence, 2.0 / 3.0, 0.03);
  // 0-robust: any loss triggers back-off.
  EXPECT_NEAR(m.robustness, 0.0, 0.002);
  // Friendly to itself: ratio 1.
  EXPECT_NEAR(m.tcp_friendliness, 1.0, 0.05);
  // Loss-based protocols fill the buffer: inflation τ/C.
  EXPECT_NEAR(m.latency_avoidance, 100.0 / 105.0, 0.02);
}

TEST(Evaluator, RobustAimdIsEpsRobust) {
  const EvalConfig cfg = fast_config();
  for (double eps : {0.005, 0.01}) {
    const cc::RobustAimd proto(1.0, 0.8, eps);
    const double robustness = measure_robustness_score(proto, cfg);
    EXPECT_NEAR(robustness, eps, eps * 0.15) << "eps=" << eps;
  }
}

TEST(Evaluator, LossBasedProtocolsAreZeroRobust) {
  const EvalConfig cfg = fast_config();
  EXPECT_NEAR(measure_robustness_score(cc::Aimd(1.0, 0.5), cfg), 0.0, 0.002);
  EXPECT_NEAR(measure_robustness_score(cc::Mimd(1.01, 0.875), cfg), 0.0,
              0.002);
  EXPECT_NEAR(measure_robustness_score(cc::VegasLike(2.0, 4.0), cfg), 0.0,
              0.002);
}

TEST(Evaluator, PccToleratesLossNearItsUtilityKnee) {
  // The Allegro utility ignores loss below ~5%; the measured tolerance sits
  // a little above the knee (the sigmoid is centred there, not cut off).
  const double robustness =
      measure_robustness_score(cc::PccAllegro(), fast_config());
  EXPECT_GT(robustness, 0.04);
  EXPECT_LT(robustness, 0.12);
}

TEST(Evaluator, FastUtilizationRanksFamiliesCorrectly) {
  const EvalConfig cfg = fast_config();
  const double aimd1 = measure_fast_utilization_score(cc::Aimd(1.0, 0.5), cfg);
  const double aimd2 = measure_fast_utilization_score(cc::Aimd(2.0, 0.5), cfg);
  const double mimd =
      measure_fast_utilization_score(cc::Mimd(1.01, 0.875), cfg);
  EXPECT_NEAR(aimd1, 1.0, 0.05);
  EXPECT_NEAR(aimd2, 2.0, 0.1);
  // Superlinear growth measures far above any additive protocol.
  EXPECT_GT(mimd, 10.0 * aimd2);
}

TEST(Evaluator, MimdIsUnfairAimdIsFair) {
  const EvalConfig cfg = fast_config();
  const fluid::Trace aimd = run_shared_link(cc::Aimd(1.0, 0.5), cfg);
  const fluid::Trace mimd = run_shared_link(cc::Mimd(1.01, 0.875), cfg);
  EXPECT_GT(measure_fairness(aimd, cfg.estimator()), 0.95);
  EXPECT_LT(measure_fairness(mimd, cfg.estimator()), 0.3);
}

TEST(Evaluator, FriendlinessOrderingRenoVsAggressors) {
  const EvalConfig cfg = fast_config();
  // Friendliness of AIMD(1,0.5) = 1 (it IS Reno); of the gentler-decrease
  // AIMD(1,0.875) it must be below 1; MIMD grabs nearly everything.
  const double f_reno =
      measure_tcp_friendliness_score(cc::Aimd(1.0, 0.5), cfg);
  const double f_scalable_aimd =
      measure_tcp_friendliness_score(cc::Aimd(1.0, 0.875), cfg);
  const double f_mimd =
      measure_tcp_friendliness_score(cc::Mimd(1.01, 0.875), cfg);
  EXPECT_NEAR(f_reno, 1.0, 0.05);
  EXPECT_LT(f_scalable_aimd, 0.6);
  EXPECT_LT(f_mimd, f_reno);
}

TEST(Evaluator, Theorem2TightnessForAimd) {
  // Measured friendliness of AIMD(a,b) approaches 3(1-b)/(a(1+b)).
  const EvalConfig cfg = fast_config();
  const struct {
    double a, b;
  } params[] = {{1.0, 0.5}, {2.0, 0.5}, {0.5, 0.5}, {1.0, 0.7}};
  for (const auto& p : params) {
    const double bound = theory::thm2_friendliness_upper_bound(p.a, p.b);
    const double measured =
        measure_tcp_friendliness_score(cc::Aimd(p.a, p.b), cfg);
    EXPECT_NEAR(measured, bound, bound * 0.15)
        << "AIMD(" << p.a << "," << p.b << ")";
  }
}

TEST(Evaluator, MoreAggressiveRelation) {
  const EvalConfig cfg = fast_config();
  const auto reno = cc::presets::reno();
  EXPECT_TRUE(is_more_aggressive(cc::Mimd(1.01, 0.875), *reno, cfg));
  EXPECT_TRUE(is_more_aggressive(cc::Aimd(2.0, 0.5), *reno, cfg));
  EXPECT_TRUE(is_more_aggressive(cc::Aimd(1.0, 0.875), *reno, cfg));
  // The relation is asymmetric.
  EXPECT_FALSE(is_more_aggressive(*reno, cc::Mimd(1.01, 0.875), cfg));
  // A protocol is not more aggressive than itself.
  EXPECT_FALSE(is_more_aggressive(*reno, *reno, cfg));
}

TEST(Evaluator, VegasKeepsLatencyLowWhereRenoFillsTheBuffer) {
  const EvalConfig cfg = fast_config();
  const fluid::Trace reno = run_shared_link(cc::Aimd(1.0, 0.5), cfg);
  const fluid::Trace vegas = run_shared_link(cc::VegasLike(2.0, 4.0), cfg);
  const double reno_latency = measure_latency_avoidance(reno, cfg.estimator());
  const double vegas_latency =
      measure_latency_avoidance(vegas, cfg.estimator());
  EXPECT_GT(reno_latency, 0.5);
  EXPECT_LT(vegas_latency, 0.15);
}

TEST(Evaluator, CautiousProbeIsZeroLossButNotFastUtilizing) {
  const EvalConfig cfg = fast_config();
  const cc::CautiousProbe probe;
  const fluid::Trace shared = run_shared_link(probe, cfg);
  EXPECT_DOUBLE_EQ(measure_loss_avoidance(shared, cfg.estimator()), 0.0);
  // And it utilizes a good chunk of the link while doing so.
  EXPECT_GT(measure_efficiency(shared, cfg.estimator()), 0.7);
}

TEST(Evaluator, SharedLinkRunSpreadsInitialWindows) {
  const EvalConfig cfg = fast_config();
  const fluid::Trace t = run_shared_link(cc::Aimd(1.0, 0.5), cfg);
  EXPECT_EQ(t.num_senders(), cfg.num_senders);
  EXPECT_NE(t.windows(0)[0], t.windows(1)[0]);
}

/// One EvalConfig field set to a value no run can honour.
struct BadField {
  const char* name;   ///< the test-name suffix.
  const char* field;  ///< the field path the error must name.
  std::function<void(EvalConfig&)> spoil;
};

/// gtest prints a parameter into each listed test name; the default dump of
/// a BadField's bytes holds addresses that change from run to run.
void PrintTo(const BadField& bad, std::ostream* os) { *os << bad.name; }

class EvalConfigValidate : public ::testing::TestWithParam<BadField> {};

TEST(EvalConfigValidate, DefaultsAndPacketDefaultsAreValid) {
  EvalConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.backend = engine::BackendKind::kPacket;
  EXPECT_NO_THROW(cfg.validate());
  // The warmup may leave exactly two steps of the run the backend makes.
  cfg.fast_utilization_warmup = cfg.packet.fast_utilization_steps - 2;
  EXPECT_NO_THROW(cfg.validate());
  cfg.backend = engine::BackendKind::kFluid;
  cfg.fast_utilization_warmup = cfg.fast_utilization_steps - 2;
  EXPECT_NO_THROW(cfg.validate());
}

TEST_P(EvalConfigValidate, RejectsTheFieldByName) {
  EvalConfig cfg;
  GetParam().spoil(cfg);
  const std::string field = std::string("EvalConfig.") + GetParam().field;
  try {
    cfg.validate();
    ADD_FAILURE() << "validate() accepted a bad " << field;
  } catch (const engine::ScenarioError& e) {
    const std::string what = e.what();
    // The named field is followed by a space, so "packet.max_window_mss"
    // is not taken for "max_window_mss" and vice versa.
    EXPECT_EQ(what.rfind(field + " ", 0), 0u) << what;
  }
  // Every public entry point taking the config checks it before any run.
  const cc::Aimd reno(1.0, 0.5);
  EXPECT_THROW((void)evaluate_protocol(reno, cfg), engine::ScenarioError);
  EXPECT_THROW((void)run_shared_link(reno, cfg), engine::ScenarioError);
  EXPECT_THROW((void)measure_fast_utilization_score(reno, cfg),
               engine::ScenarioError);
  EXPECT_THROW((void)measure_robustness_score(reno, cfg),
               engine::ScenarioError);
  EXPECT_THROW((void)measure_tcp_friendliness_score(reno, cfg),
               engine::ScenarioError);
  EXPECT_THROW((void)measure_friendliness_between(reno, reno, cfg),
               engine::ScenarioError);
  EXPECT_THROW((void)is_more_aggressive(reno, reno, cfg),
               engine::ScenarioError);
  EXPECT_THROW((void)measure_responsiveness(reno, cfg),
               engine::ScenarioError);
}

const double kNaN = std::numeric_limits<double>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    EveryField, EvalConfigValidate,
    ::testing::Values(
        BadField{"link_zero_bandwidth", "link",
                 [](EvalConfig& c) {
                   c.link.bandwidth = Bandwidth::from_mss_per_sec(0.0);
                 }},
        BadField{"num_senders_zero", "num_senders",
                 [](EvalConfig& c) { c.num_senders = 0; }},
        BadField{"steps_zero_length", "steps",
                 [](EvalConfig& c) { c.steps = 0; }},
        BadField{"tail_fraction_one", "tail_fraction",
                 [](EvalConfig& c) { c.tail_fraction = 1.0; }},
        BadField{"fast_utilization_steps", "fast_utilization_steps",
                 [](EvalConfig& c) { c.fast_utilization_steps = 0; }},
        BadField{"fast_utilization_warmup_negative", "fast_utilization_warmup",
                 [](EvalConfig& c) { c.fast_utilization_warmup = -1; }},
        BadField{"fast_utilization_warmup_past_horizon",
                 "fast_utilization_warmup",
                 [](EvalConfig& c) {
                   c.fast_utilization_warmup = c.fast_utilization_steps - 1;
                 }},
        BadField{"fast_utilization_warmup_past_packet_horizon",
                 "fast_utilization_warmup",
                 [](EvalConfig& c) {
                   c.backend = engine::BackendKind::kPacket;
                   c.fast_utilization_warmup =
                       c.packet.fast_utilization_steps - 1;
                 }},
        BadField{"robustness_steps", "robustness_steps",
                 [](EvalConfig& c) { c.robustness_steps = 0; }},
        BadField{"robustness_escape_window", "robustness_escape_window",
                 [](EvalConfig& c) { c.robustness_escape_window = kNaN; }},
        BadField{"robustness_search_iterations",
                 "robustness_search_iterations",
                 [](EvalConfig& c) { c.robustness_search_iterations = -1; }},
        BadField{"robustness_max_rate", "robustness_max_rate",
                 [](EvalConfig& c) { c.robustness_max_rate = 1.0; }},
        BadField{"num_protocol_senders", "num_protocol_senders",
                 [](EvalConfig& c) { c.num_protocol_senders = 0; }},
        BadField{"num_reno_senders", "num_reno_senders",
                 [](EvalConfig& c) { c.num_reno_senders = 0; }},
        BadField{"backend_out_of_range", "backend",
                 [](EvalConfig& c) {
                   c.backend = static_cast<engine::BackendKind>(7);
                 }},
        BadField{"packet_max_window_mss", "packet.max_window_mss",
                 [](EvalConfig& c) { c.packet.max_window_mss = 0.5; }},
        BadField{"packet_infinite_capacity_mss", "packet.infinite_capacity_mss",
                 [](EvalConfig& c) {
                   c.packet.infinite_capacity_mss = c.packet.max_window_mss;
                 }},
        BadField{"packet_max_steps", "packet.max_steps",
                 [](EvalConfig& c) { c.packet.max_steps = 0; }},
        BadField{"packet_fast_utilization_steps",
                 "packet.fast_utilization_steps",
                 [](EvalConfig& c) { c.packet.fast_utilization_steps = 0; }},
        BadField{"packet_robustness_steps", "packet.robustness_steps",
                 [](EvalConfig& c) { c.packet.robustness_steps = 0; }},
        BadField{"packet_robustness_search_iterations",
                 "packet.robustness_search_iterations",
                 [](EvalConfig& c) {
                   c.packet.robustness_search_iterations = -1;
                 }},
        BadField{"packet_robustness_escape_window",
                 "packet.robustness_escape_window",
                 [](EvalConfig& c) {
                   c.packet.robustness_escape_window = c.packet.max_window_mss;
                 }}),
    [](const ::testing::TestParamInfo<BadField>& param) {
      return std::string(param.param.name);
    });

}  // namespace
}  // namespace axiomcc::core
