// Tests for the dual-backend fuzz oracle: classification, expectation
// matching, and novelty keys.
#include "fuzz/runner.h"

#include <gtest/gtest.h>

#include <cmath>

namespace axiomcc::fuzz {
namespace {

TEST(FuzzRunner, BaselineScenarioRunsClean) {
  const ScenarioDesc desc;  // 30 Mbps / 42 ms / one Reno sender.
  const RunOutcome outcome = run_scenario(desc);
  EXPECT_EQ(outcome.kind, OutcomeKind::kClean);
  EXPECT_TRUE(outcome.fluid_fault.ok());
  EXPECT_TRUE(outcome.packet_fault.ok());
  EXPECT_GT(outcome.fluid.efficiency, 0.5);
  EXPECT_GT(outcome.packet.efficiency, 0.5);
  EXPECT_TRUE(std::isfinite(outcome.divergence));
  EXPECT_LT(outcome.divergence, 0.35);
  EXPECT_NE(outcome.novelty_key, 0u);
}

TEST(FuzzRunner, RunIsDeterministic) {
  ScenarioDesc desc;
  desc.loss.kind = fluid::LossSpec::Kind::kBernoulli;
  desc.loss.prob = 0.1;
  desc.loss.rate = 0.2;
  const RunOutcome a = run_scenario(desc);
  const RunOutcome b = run_scenario(desc);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.novelty_key, b.novelty_key);
  EXPECT_DOUBLE_EQ(a.divergence, b.divergence);
  EXPECT_DOUBLE_EQ(a.fluid.efficiency, b.fluid.efficiency);
  EXPECT_DOUBLE_EQ(a.packet.efficiency, b.packet.efficiency);
}

TEST(FuzzRunner, DivergenceThresholdControlsClassification) {
  // A deep mid-run outage is a known divergence driver (see tests/corpus).
  ScenarioDesc desc;
  desc.steps = 200;
  desc.senders = {SenderDesc{"aimd(1,0.5)", 30.0, 0.0, -1.0}};
  desc.bandwidth_scale.points = {{150, 0.001}};
  RunnerConfig strict;
  strict.divergence_threshold = 0.35;
  const RunOutcome tight = run_scenario(desc, strict);
  ASSERT_EQ(tight.kind, OutcomeKind::kDivergence);
  RunnerConfig loose;
  loose.divergence_threshold = 10.0;  // nothing diverges this far.
  const RunOutcome lax = run_scenario(desc, loose);
  EXPECT_EQ(lax.kind, OutcomeKind::kClean);
  EXPECT_DOUBLE_EQ(lax.divergence, tight.divergence);
}

TEST(FuzzRunner, ExpectForRoundTripsThroughMatches) {
  ScenarioDesc desc;
  desc.steps = 200;
  desc.senders = {SenderDesc{"aimd(1,0.5)", 30.0, 0.0, -1.0}};
  desc.bandwidth_scale.points = {{150, 0.001}};
  const RunOutcome outcome = run_scenario(desc);
  ASSERT_TRUE(outcome.is_finding());
  const ExpectDesc expect = expect_for(outcome);
  EXPECT_FALSE(expect.empty());
  EXPECT_TRUE(matches_expect(outcome, expect));
}

TEST(FuzzRunner, EmptyExpectNeverMatches) {
  const RunOutcome outcome = run_scenario(ScenarioDesc{});
  EXPECT_FALSE(matches_expect(outcome, ExpectDesc{}));
}

TEST(FuzzRunner, MismatchedKindOrDetailDoesNotMatch) {
  const RunOutcome outcome = run_scenario(ScenarioDesc{});
  ASSERT_EQ(outcome.kind, OutcomeKind::kClean);
  EXPECT_TRUE(matches_expect(outcome, ExpectDesc{"clean", ""}));
  EXPECT_FALSE(matches_expect(outcome, ExpectDesc{"divergence", ""}));
  EXPECT_FALSE(
      matches_expect(outcome, ExpectDesc{"clean", "non_finite_window"}));
}

TEST(FuzzRunner, NoveltyKeySeparatesDistinctBehaviors) {
  const RunOutcome clean = run_scenario(ScenarioDesc{});
  ScenarioDesc lossy;
  lossy.loss.kind = fluid::LossSpec::Kind::kConstant;
  lossy.loss.rate = 0.3;
  const RunOutcome perturbed = run_scenario(lossy);
  EXPECT_NE(clean.novelty_key, perturbed.novelty_key);
}

}  // namespace
}  // namespace axiomcc::fuzz
