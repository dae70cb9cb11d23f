// Unit tests for the fluid bottleneck link (Eq. 1 RTT and droptail loss).
#include "fluid/link.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::fluid {
namespace {

LinkParams paper_link() { return make_link_mbps(30.0, 42.0, 100.0); }

TEST(FluidLink, CapacityIsBandwidthTimesRtt) {
  const FluidLink link(paper_link());
  // 30 Mbps = 2500 MSS/s; × 42 ms = 105 MSS.
  EXPECT_DOUBLE_EQ(link.capacity_mss(), 105.0);
  EXPECT_DOUBLE_EQ(link.buffer_mss(), 100.0);
  EXPECT_DOUBLE_EQ(link.loss_threshold_mss(), 205.0);
  EXPECT_DOUBLE_EQ(link.min_rtt().value(), 0.042);
}

TEST(FluidLink, RttIsFloorBelowCapacity) {
  const FluidLink link(paper_link());
  EXPECT_DOUBLE_EQ(link.rtt(0.0).value(), 0.042);
  EXPECT_DOUBLE_EQ(link.rtt(50.0).value(), 0.042);
  EXPECT_DOUBLE_EQ(link.rtt(105.0).value(), 0.042);
}

TEST(FluidLink, RttGrowsLinearlyWithQueue) {
  const FluidLink link(paper_link());
  // 50 MSS of queue at 2500 MSS/s = 20 ms of queueing delay.
  EXPECT_NEAR(link.rtt(155.0).value(), 0.042 + 0.020, 1e-12);
}

TEST(FluidLink, RttCapsAtTimeoutWhenBufferOverflows) {
  const FluidLink link(paper_link());
  // Default Δ = 2Θ + τ/B = 42 ms + 40 ms.
  EXPECT_NEAR(link.rtt(205.0).value(), 0.082, 1e-12);
  EXPECT_NEAR(link.rtt(100000.0).value(), 0.082, 1e-12);
}

TEST(FluidLink, ExactBitsAroundCapacityAndThreshold) {
  const FluidLink link(paper_link());
  const double c = link.capacity_mss();
  const double base = link.min_rtt().value();
  const double b = link.params().bandwidth.mss_per_sec();
  const double inf = std::numeric_limits<double>::infinity();
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  // No queue at or below C: exactly 2Θ, and no loss.
  for (const double x : {0.0, std::nextafter(c, 0.0), c}) {
    EXPECT_EQ(bits(link.rtt(x).value()), bits(base)) << x;
    EXPECT_EQ(bits(link.loss_rate(x)), bits(0.0)) << x;
  }
  // One ulp of queue: Eq. 1's queueing term.
  const double above = std::nextafter(c, inf);
  EXPECT_EQ(bits(link.rtt(above).value()),
            bits(std::max(base, base + (above - c) / b)));
  EXPECT_EQ(bits(link.loss_rate(above)), bits(0.0));
  // A full buffer: the default timeout Δ = 2Θ + τ/B, still no loss.
  const double full = link.loss_threshold_mss();
  EXPECT_EQ(full, c + link.buffer_mss());
  EXPECT_EQ(bits(link.rtt(full).value()), bits(base + link.buffer_mss() / b));
  EXPECT_EQ(bits(link.loss_rate(full)), bits(0.0));
}

TEST(FluidLink, NegativeOrNanTotalViolatesContract) {
  const FluidLink link(paper_link());
  for (const double bad : {-1e-300, std::nan("")}) {
    EXPECT_THROW((void)link.rtt(bad), ContractViolation) << bad;
    EXPECT_THROW((void)link.loss_rate(bad), ContractViolation) << bad;
  }
}

TEST(FluidLink, CustomTimeoutRespected) {
  LinkParams p = paper_link();
  p.timeout_rtt = Seconds(0.5);
  const FluidLink link(p);
  EXPECT_DOUBLE_EQ(link.rtt(205.0).value(), 0.5);
}

TEST(FluidLink, CustomTimeoutBelowMinRttViolatesContract) {
  LinkParams p = paper_link();
  p.timeout_rtt = Seconds(0.001);
  EXPECT_THROW(FluidLink{p}, ContractViolation);
}

TEST(FluidLink, NoLossUpToThreshold) {
  const FluidLink link(paper_link());
  EXPECT_DOUBLE_EQ(link.loss_rate(0.0), 0.0);
  EXPECT_DOUBLE_EQ(link.loss_rate(205.0), 0.0);
}

TEST(FluidLink, LossIsExcessFraction) {
  const FluidLink link(paper_link());
  // X = 2(C+τ): half the traffic is dropped.
  EXPECT_DOUBLE_EQ(link.loss_rate(410.0), 0.5);
  EXPECT_NEAR(link.loss_rate(207.0), 1.0 - 205.0 / 207.0, 1e-12);
}

TEST(FluidLink, LossApproachesOneAsymptotically) {
  const FluidLink link(paper_link());
  EXPECT_GT(link.loss_rate(1e9), 0.999);
  EXPECT_LT(link.loss_rate(1e9), 1.0);
}

TEST(FluidLink, ZeroBufferIsLegal) {
  const FluidLink link(make_link_mbps(10.0, 20.0, 0.0));
  EXPECT_DOUBLE_EQ(link.loss_threshold_mss(), link.capacity_mss());
  // With an empty buffer the timeout default collapses to the min RTT.
  EXPECT_DOUBLE_EQ(link.rtt(link.capacity_mss() + 1.0).value(), 0.020);
}

TEST(FluidLink, ParameterContracts) {
  LinkParams p;  // zero bandwidth
  p.propagation_delay = Seconds(0.01);
  EXPECT_THROW(FluidLink{p}, ContractViolation);

  LinkParams q = paper_link();
  q.buffer_mss = -1.0;
  EXPECT_THROW(FluidLink{q}, ContractViolation);

  EXPECT_THROW((void)FluidLink(paper_link()).rtt(-1.0), ContractViolation);
  EXPECT_THROW((void)FluidLink(paper_link()).loss_rate(-1.0),
               ContractViolation);
}

TEST(MakeLinkMbps, SplitsRttIntoSymmetricPropagation) {
  const LinkParams p = make_link_mbps(100.0, 42.0, 10.0);
  EXPECT_DOUBLE_EQ(p.propagation_delay.value(), 0.021);
  EXPECT_DOUBLE_EQ(p.bandwidth.mbps(), 100.0);
  EXPECT_DOUBLE_EQ(p.buffer_mss, 10.0);
}

}  // namespace
}  // namespace axiomcc::fluid
