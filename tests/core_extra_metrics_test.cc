// Tests for the proposed additional axioms (responsiveness, smoothness,
// Jain fairness) and the time-varying-bandwidth machinery they rely on.
#include "core/extra_metrics.h"

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/bbr_like.h"
#include "cc/binomial.h"
#include "cc/mimd.h"
#include "fluid/sim.h"
#include "util/check.h"

namespace axiomcc::core {
namespace {

EvalConfig cfg() {
  EvalConfig c;
  c.steps = 3000;
  return c;
}

// --- time-varying bandwidth -------------------------------------------------

TEST(BandwidthSchedule, ScalesLossThreshold) {
  // Constant window just above the base threshold: lossy at scale 1, clean
  // at scale 2.
  fluid::LinkParams link = fluid::make_link_mbps(30.0, 42.0, 10.0);
  // C = 105, τ = 10 → threshold 115.
  fluid::SimOptions opt;
  opt.steps = 40;
  fluid::FluidSimulation sim(link, opt);
  sim.add_sender(cc::Aimd(1.0, 0.999999), 150.0);  // near-frozen window
  sim.set_bandwidth_schedule(fluid::Schedule{{{20, 2.0}}});
  const fluid::Trace trace = sim.run();

  EXPECT_GT(trace.congestion_loss()[5], 0.0);    // 150 > 115
  EXPECT_DOUBLE_EQ(trace.congestion_loss()[30], 0.0);  // 150 < 220
}

TEST(BandwidthSchedule, RejectsNonPositiveScale) {
  fluid::FluidSimulation sim(fluid::make_link_mbps(30.0, 42.0, 10.0),
                             fluid::SimOptions{10, 1.0, 1e9});
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  sim.set_bandwidth_schedule(fluid::Schedule{{{0, 0.0}}});
  EXPECT_THROW((void)sim.run(), ContractViolation);
}

// --- responsiveness -----------------------------------------------------------

TEST(Responsiveness, FasterAdditiveIncreaseRefillsSooner) {
  const long slow = measure_responsiveness(cc::Aimd(0.5, 0.5), cfg());
  const long fast = measure_responsiveness(cc::Aimd(4.0, 0.5), cfg());
  EXPECT_LT(fast, slow);
  EXPECT_GT(fast, 0);
}

TEST(Responsiveness, MimdRefillsAlmostInstantly) {
  const long mimd = measure_responsiveness(cc::Mimd(1.05, 0.875), cfg());
  const long aimd = measure_responsiveness(cc::Aimd(1.0, 0.5), cfg());
  EXPECT_LT(mimd, aimd);
}

TEST(Responsiveness, SublinearProtocolsHitTheHorizon) {
  // IIAD's increase collapses at large windows; it cannot refill a doubled
  // capacity within the horizon.
  const EvalConfig c = cfg();
  const long iiad = measure_responsiveness(cc::Binomial(1.0, 1.0, 1.0, 0.0), c);
  EXPECT_EQ(iiad, c.steps / 2);
}

TEST(Responsiveness, RejectsBadTargetFraction) {
  EXPECT_THROW((void)measure_responsiveness(cc::Aimd(1.0, 0.5), cfg(), 0.0),
               ContractViolation);
  EXPECT_THROW((void)measure_responsiveness(cc::Aimd(1.0, 0.5), cfg(), 1.5),
               ContractViolation);
}

// --- smoothness --------------------------------------------------------------

TEST(Smoothness, GentlerDecreaseIsSmoother) {
  const EvalConfig c = cfg();
  const fluid::Trace reno = run_shared_link(cc::Aimd(1.0, 0.5), c);
  const fluid::Trace gentle = run_shared_link(cc::Aimd(1.0, 0.9), c);
  EXPECT_GT(measure_smoothness(gentle, c.estimator()),
            measure_smoothness(reno, c.estimator()));
}

TEST(Smoothness, ConstantSeriesIsPerfectlySmooth) {
  fluid::Trace trace(1, 100.0, 0.1);
  for (int t = 0; t < 20; ++t) {
    trace.add_step(std::vector<double>{42.0}, 0.1, 0.0,
                   std::vector<double>{0.0});
  }
  EXPECT_DOUBLE_EQ(measure_smoothness(trace, {0.5}), 1.0);
}

// --- Jain fairness ------------------------------------------------------------

TEST(JainFairness, MatchesKnownValues) {
  fluid::Trace trace(4, 100.0, 0.1);
  for (int t = 0; t < 20; ++t) {
    trace.add_step(std::vector<double>{10.0, 10.0, 10.0, 10.0}, 0.1, 0.0,
                   std::vector<double>(4, 0.0));
  }
  EXPECT_DOUBLE_EQ(measure_jain_fairness(trace, {0.5}), 1.0);

  fluid::Trace skewed(2, 100.0, 0.1);
  for (int t = 0; t < 20; ++t) {
    skewed.add_step(std::vector<double>{30.0, 10.0}, 0.1, 0.0,
                    std::vector<double>(2, 0.0));
  }
  // (40)² / (2·(900+100)) = 0.8.
  EXPECT_NEAR(measure_jain_fairness(skewed, {0.5}), 0.8, 1e-12);
}

TEST(JainFairness, AimdBeatsMimdAsWithMinRatioFairness) {
  const EvalConfig c = cfg();
  const fluid::Trace aimd = run_shared_link(cc::Aimd(1.0, 0.5), c);
  const fluid::Trace mimd = run_shared_link(cc::Mimd(1.01, 0.875), c);
  EXPECT_GT(measure_jain_fairness(aimd, c.estimator()),
            measure_jain_fairness(mimd, c.estimator()));
}

}  // namespace
}  // namespace axiomcc::core
