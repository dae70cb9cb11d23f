// Asserts the empirical theorem checks in exp/theorems.h all hold.
#include "exp/theorems.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace axiomcc::exp {
namespace {

core::EvalConfig cfg() {
  core::EvalConfig c;
  c.steps = 3000;
  return c;
}

TEST(Claim1, ZeroLossButNotFastUtilizing) {
  const Claim1Result r = check_claim1(cfg());
  EXPECT_DOUBLE_EQ(r.tail_loss, 0.0);
  EXPECT_LT(r.fast_utilization, 0.05);
  EXPECT_LE(r.fast_utilization_half, r.fast_utilization + 1e-9);
  EXPECT_TRUE(r.holds);
}

TEST(Theorem1, EfficiencyLowerBoundHoldsAcrossAimdGrid) {
  for (const auto& check : check_theorem1(cfg())) {
    EXPECT_TRUE(check.holds) << check.description;
  }
}

TEST(Theorem2, FriendlinessUpperBoundHoldsAndIsTight) {
  const auto checks = check_theorem2(cfg());
  for (const auto& check : checks) {
    EXPECT_TRUE(check.holds) << check.description;
    // Tightness: measured within 35% of the bound from below.
    EXPECT_GT(check.measured, check.bound * 0.65) << check.description;
  }
}

TEST(Theorem3, RobustnessCostsFriendlinessMonotonically) {
  for (const auto& check : check_theorem3(cfg())) {
    EXPECT_TRUE(check.holds) << check.description;
  }
}

TEST(Theorem4, FriendlinessTransfersToMoreAggressiveProtocols) {
  for (const auto& check : check_theorem4(cfg())) {
    EXPECT_TRUE(check.holds) << check.description;
  }
}

TEST(Theorem4, AnUnmetPremiseIsAFailedCheckThatNamesIt) {
  // At 200 steps the aggressors have not yet shown they out-grab Reno:
  // that premise is reported as a failed check, not a thrown contract.
  core::EvalConfig short_run = cfg();
  short_run.steps = 200;
  std::vector<TheoremCheck> checks;
  ASSERT_NO_THROW(checks = check_theorem4(short_run, 1));
  ASSERT_EQ(checks.size(), 3u);
  std::size_t unmet = 0;
  for (const auto& check : checks) {
    if (check.description.find("premise unmet") == std::string::npos) continue;
    ++unmet;
    EXPECT_FALSE(check.holds) << check.description;
    EXPECT_NE(check.description.find("more aggressive than Reno"),
              std::string::npos);
  }
  EXPECT_GE(unmet, 1u);
}

TEST(Theorem5, LossBasedProtocolsStarveLatencyAvoiders) {
  for (const auto& check : check_theorem5(cfg())) {
    EXPECT_TRUE(check.holds) << check.description;
    EXPECT_LT(check.measured, 0.1) << check.description;
  }
}

}  // namespace
}  // namespace axiomcc::exp
