// Tests for the dual-backend fuzz oracle: classification, expectation
// matching, and novelty keys.
#include "fuzz/runner.h"

#include <gtest/gtest.h>

#include <cmath>

namespace axiomcc::fuzz {
namespace {

/// A lone AIMD flow through a deep outage at step 150 of 200, a known
/// divergence driver (see tests/corpus).
engine::ScenarioSpec outage_spec() {
  engine::ScenarioSpec spec = default_scenario();
  spec.steps = 200;
  spec.senders = {sender_slot("aimd(1,0.5)", 30.0, 0.0, -1.0)};
  spec.bandwidth_scale.points = {{150, 0.001}};
  return spec;
}

TEST(FuzzRunner, BaselineScenarioRunsClean) {
  // 30 Mbps / 42 ms / one Reno sender.
  const RunOutcome outcome = run_scenario(default_scenario());
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
  engine::ScenarioSpec spec = default_scenario();
  spec.loss.kind = fluid::LossSpec::Kind::kBernoulli;
  spec.loss.prob = 0.1;
  spec.loss.rate = 0.2;
  const RunOutcome a = run_scenario(spec);
  const RunOutcome b = run_scenario(spec);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.novelty_key, b.novelty_key);
  EXPECT_DOUBLE_EQ(a.divergence, b.divergence);
  EXPECT_DOUBLE_EQ(a.fluid.efficiency, b.fluid.efficiency);
  EXPECT_DOUBLE_EQ(a.packet.efficiency, b.packet.efficiency);
}

TEST(FuzzRunner, DivergenceThresholdControlsClassification) {
  // A deep mid-run outage is a known divergence driver (see tests/corpus).
  const engine::ScenarioSpec spec = outage_spec();
  RunnerConfig strict;
  strict.divergence_threshold = 0.35;
  const RunOutcome tight = run_scenario(spec, strict);
  ASSERT_EQ(tight.kind, OutcomeKind::kDivergence);
  RunnerConfig loose;
  loose.divergence_threshold = 10.0;  // nothing diverges this far.
  const RunOutcome lax = run_scenario(spec, loose);
  EXPECT_EQ(lax.kind, OutcomeKind::kClean);
  EXPECT_DOUBLE_EQ(lax.divergence, tight.divergence);
}

TEST(FuzzRunner, ExpectForRoundTripsThroughMatches) {
  const RunOutcome outcome = run_scenario(outage_spec());
  ASSERT_TRUE(outcome.is_finding());
  const ExpectDesc expect = expect_for(outcome);
  EXPECT_FALSE(expect.empty());
  EXPECT_TRUE(matches_expect(outcome, expect));
}

TEST(FuzzRunner, EmptyExpectNeverMatches) {
  const RunOutcome outcome = run_scenario(default_scenario());
  EXPECT_FALSE(matches_expect(outcome, ExpectDesc{}));
}

TEST(FuzzRunner, MismatchedKindOrDetailDoesNotMatch) {
  const RunOutcome outcome = run_scenario(default_scenario());
  ASSERT_EQ(outcome.kind, OutcomeKind::kClean);
  EXPECT_TRUE(matches_expect(outcome, ExpectDesc{"clean", ""}));
  EXPECT_FALSE(matches_expect(outcome, ExpectDesc{"divergence", ""}));
  EXPECT_FALSE(
      matches_expect(outcome, ExpectDesc{"clean", "non_finite_window"}));
}

TEST(FuzzRunner, NoveltyKeySeparatesDistinctBehaviors) {
  const RunOutcome clean = run_scenario(default_scenario());
  engine::ScenarioSpec lossy = default_scenario();
  lossy.loss.kind = fluid::LossSpec::Kind::kConstant;
  lossy.loss.rate = 0.3;
  const RunOutcome perturbed = run_scenario(lossy);
  EXPECT_NE(clean.novelty_key, perturbed.novelty_key);
}

TEST(FuzzRunner, EngineRejectionIsABothSidedExceptionFault) {
  // A spec the engine rejects before the first step (here a window shorter
  // than one step) is classified, not thrown: both guarded runs report the
  // typed rejection as an exception.
  engine::ScenarioSpec spec = default_scenario();
  spec.senders = {sender_slot("reno", 1.0, 20.0, 20.0)};
  const RunOutcome outcome = run_scenario(spec);
  EXPECT_EQ(outcome.kind, OutcomeKind::kBothFault);
  EXPECT_EQ(outcome.fluid_fault.kind, stress::FaultKind::kException);
  EXPECT_EQ(outcome.packet_fault.kind, stress::FaultKind::kException);
}

TEST(FuzzRunner, NonPositiveLinkBandwidthIsABothSidedFaultNotAThrow) {
  // Sizing the guard from a link the engine rejects used to throw out of
  // run_guarded before its try; it must fault like any other rejection.
  engine::ScenarioSpec spec = default_scenario();
  spec.link.bandwidth = Bandwidth::from_mss_per_sec(-1.0);
  RunOutcome outcome;
  ASSERT_NO_THROW(outcome = run_scenario(spec));
  EXPECT_EQ(outcome.kind, OutcomeKind::kBothFault);
  EXPECT_EQ(outcome.fluid_fault.kind, stress::FaultKind::kException);
  EXPECT_EQ(outcome.packet_fault.kind, stress::FaultKind::kException);
}

}  // namespace
}  // namespace axiomcc::fuzz
