// Tests for the packet-level Bernoulli loss channel.
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
}

TEST(BernoulliPacketLoss, DropRateMatchesProbability) {
  BernoulliPacketLoss loss(0.2, 7);
  const int n = 50000;
  int dropped = 0;
  for (int i = 0; i < n; ++i) dropped += loss.drop(packet(i)) ? 1 : 0;
  const double rate = static_cast<double>(dropped) / n;
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

}  // namespace
}  // namespace axiomcc::sim
