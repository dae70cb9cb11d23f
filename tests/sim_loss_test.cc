// Tests for the packet-level loss channels (Bernoulli, Gilbert-Elliott).
#include "sim/loss.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::sim {
namespace {

Packet packet(std::uint64_t seq) {
  Packet p;
  p.seq = seq;
  return p;
}

TEST(BernoulliPacketLoss, ZeroRateDropsNothing) {
  BernoulliPacketLoss loss(0.0, 1);
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_FALSE(loss.drop(packet(i)));
  EXPECT_EQ(loss.dropped(), 0u);
}

TEST(BernoulliPacketLoss, DropRateMatchesProbability) {
  BernoulliPacketLoss loss(0.2, 7);
  const int n = 50000;
  for (int i = 0; i < n; ++i) (void)loss.drop(packet(i));
  const double rate = static_cast<double>(loss.dropped()) / n;
  EXPECT_NEAR(rate, 0.2, 0.01);
}

TEST(BernoulliPacketLoss, DeterministicPerSeed) {
  const auto pattern = [](std::uint64_t seed) {
    BernoulliPacketLoss loss(0.3, seed);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) out.push_back(loss.drop(packet(i)));
    return out;
  };
  EXPECT_EQ(pattern(5), pattern(5));
  EXPECT_NE(pattern(5), pattern(6));
}

TEST(BernoulliPacketLoss, RejectsBadRate) {
  EXPECT_THROW(BernoulliPacketLoss(-0.1, 1), ContractViolation);
  EXPECT_THROW(BernoulliPacketLoss(1.0, 1), ContractViolation);
}

TEST(GilbertElliott, BurstsLossesInBadState) {
  // Slow transitions, lossless good state, heavy bad state: drops must come
  // in runs rather than uniformly.
  GilbertElliottPacketLoss loss(0.01, 0.05, 0.0, 0.8, 11);
  std::vector<bool> drops;
  for (int i = 0; i < 20000; ++i) drops.push_back(loss.drop(packet(i)));

  // Overall rate: stationary P(bad) = 0.01/(0.01+0.05) = 1/6; ×0.8 ≈ 13%.
  const double rate =
      static_cast<double>(loss.dropped()) / static_cast<double>(drops.size());
  EXPECT_NEAR(rate, 0.133, 0.03);

  // Burstiness: probability that the packet after a drop is also dropped is
  // far above the marginal rate.
  int after_drop = 0;
  int after_drop_dropped = 0;
  for (std::size_t i = 1; i < drops.size(); ++i) {
    if (drops[i - 1]) {
      ++after_drop;
      if (drops[i]) ++after_drop_dropped;
    }
  }
  ASSERT_GT(after_drop, 100);
  const double conditional =
      static_cast<double>(after_drop_dropped) / after_drop;
  EXPECT_GT(conditional, rate * 2.0);
}

TEST(GilbertElliott, AllGoodIsClean) {
  GilbertElliottPacketLoss loss(0.0, 1.0, 0.0, 0.9, 3);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(loss.drop(packet(i)));
}

}  // namespace
}  // namespace axiomcc::sim
