// Unit tests for the Emulab-style validation machinery: the hierarchy
// verdict logic on synthetic cells (no simulation), and one real (small)
// grid cell end to end.
#include "exp/emulab.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/check.h"

namespace axiomcc::exp {
namespace {

/// A synthetic cell whose measured scores we control completely. The theory
/// side still runs the fluid model, so pick the paper's default shape where
/// the model ordering is known: efficiency Reno < Cubic ≈ Scalable,
/// fairness Scalable ≪ Reno, friendliness Scalable < Cubic < Reno.
EmulabCell synthetic_cell(double reno_eff, double cubic_eff, double scal_eff) {
  EmulabCell cell;
  cell.n = 2;
  cell.bandwidth_mbps = 30.0;
  cell.buffer_packets = 100;

  EmulabScores reno;
  reno.protocol = "AIMD(1,0.5)";
  reno.efficiency = reno_eff;
  reno.loss_rate = 0.001;
  reno.fairness = 1.0;
  reno.convergence = 0.66;
  reno.tcp_friendliness = 1.0;

  EmulabScores cubic = reno;
  cubic.protocol = "CUBIC(0.4,0.8)";
  cubic.efficiency = cubic_eff;
  cubic.convergence = 0.8;
  cubic.tcp_friendliness = 0.1;

  EmulabScores scalable = reno;
  scalable.protocol = "MIMD(1.01,0.875)";
  scalable.efficiency = scal_eff;
  scalable.fairness = 0.05;
  scalable.convergence = 0.92;
  scalable.tcp_friendliness = 0.15;

  cell.protocols = {reno, cubic, scalable};
  return cell;
}

TEST(CheckHierarchies, ConsistentCellMatchesEverywhere) {
  // Measured scores mimicking the model's own ordering.
  const EmulabCell cell = synthetic_cell(0.97, 1.0, 1.0);
  int matching = 0;
  for (const auto& v : check_hierarchies(cell)) {
    if (v.matches) ++matching;
  }
  EXPECT_EQ(matching, 5);
}

TEST(CheckHierarchies, InvertedEfficiencyIsFlagged) {
  // Reno measured far ABOVE the others inverts the efficiency hierarchy.
  // Use a shallow buffer, where the model STRICTLY separates Reno's
  // efficiency (b(1+τ/C) ≈ 0.52) from Cubic/Scalable (≈ 0.85+) — at deep
  // buffers all three saturate near 1 and the verdict correctly ties them.
  EmulabCell cell = synthetic_cell(1.0, 0.5, 0.5);
  cell.buffer_packets = 10;
  bool efficiency_matches = true;
  for (const auto& v : check_hierarchies(cell)) {
    if (v.metric == core::Metric::kEfficiency) efficiency_matches = v.matches;
  }
  EXPECT_FALSE(efficiency_matches);
}

TEST(CheckHierarchies, VerdictsCarryReadableOrders) {
  const EmulabCell cell = synthetic_cell(0.97, 1.0, 1.0);
  const auto verdicts = check_hierarchies(cell);
  ASSERT_EQ(verdicts.size(), 5u);
  for (const auto& v : verdicts) {
    EXPECT_NE(v.measured_order.find(" < "), std::string::npos);
    EXPECT_NE(v.theory_order.find(" < "), std::string::npos);
    EXPECT_NE(v.measured_order.find("AIMD"), std::string::npos);
  }
}

TEST(CheckHierarchies, WrongProtocolCountViolatesContract) {
  EmulabCell cell = synthetic_cell(0.97, 1.0, 1.0);
  cell.protocols.pop_back();
  EXPECT_THROW((void)check_hierarchies(cell), ContractViolation);
}

TEST(RunEmulabGrid, SingleCellEndToEnd) {
  EmulabGridConfig cfg;
  cfg.sender_counts = {2};
  cfg.bandwidths_mbps = {20.0};
  cfg.buffers_packets = {100};
  cfg.duration_seconds = 15.0;

  const auto cells = run_emulab_grid(cfg);
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].protocols.size(), 3u);
  for (const auto& p : cells[0].protocols) {
    EXPECT_GT(p.efficiency, 0.2) << p.protocol;
    EXPECT_LT(p.loss_rate, 0.2) << p.protocol;
    EXPECT_GT(p.fairness, 0.0) << p.protocol;
    EXPECT_GT(p.tcp_friendliness, 0.0) << p.protocol;
  }
  // Efficiency hierarchy is the most robust prediction: it must hold even
  // in a single quick cell.
  bool efficiency_matches = false;
  for (const auto& v : check_hierarchies(cells[0])) {
    if (v.metric == core::Metric::kEfficiency) efficiency_matches = v.matches;
  }
  EXPECT_TRUE(efficiency_matches);
}

TEST(RunEmulabGrid, NonFiniteDurationThrowsInsteadOfHanging) {
  // lround(NaN) is no step count: the engine's horizon check rejects it.
  EmulabGridConfig cfg;
  cfg.sender_counts = {2};
  cfg.bandwidths_mbps = {20.0};
  cfg.buffers_packets = {100};
  cfg.jobs = 1;
  for (const double duration :
       {std::nan(""), -1.0, std::numeric_limits<double>::infinity()}) {
    cfg.duration_seconds = duration;
    EXPECT_THROW((void)run_emulab_grid(cfg), std::invalid_argument)
        << duration;
  }
}

}  // namespace
}  // namespace axiomcc::exp
