// Pins last-step trace retention (fluid::TraceDetail::kLast): on every path
// that records a trace — FluidSimulation's scalar loop and its cohort loop
// (also when a step monitor stops the run early), its routed loop, and the
// packet backend on one link and on a topology — a kLast run holds exactly
// the last step of the kFull run of the same spec, bit for bit, and the
// aggregate-only accessors reject it.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "cc/registry.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "fluid/trace.h"
#include "util/check.h"

namespace axiomcc {
namespace {

using engine::BackendKind;
using engine::ScenarioSpec;
using fluid::Trace;
using fluid::TraceDetail;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// `last` holds exactly the final step of `full`, bit for bit.
void expect_last_step_of(const Trace& last, const Trace& full) {
  ASSERT_EQ(full.detail(), TraceDetail::kFull);
  ASSERT_EQ(last.detail(), TraceDetail::kLast);
  ASSERT_GT(full.num_steps(), 0u);
  ASSERT_EQ(last.num_steps(), 1u);
  ASSERT_EQ(last.num_senders(), full.num_senders());
  EXPECT_TRUE(same_bits(last.link_capacity_mss(), full.link_capacity_mss()));
  EXPECT_TRUE(same_bits(last.min_rtt_seconds(), full.min_rtt_seconds()));
  EXPECT_EQ(last.tracked_senders().size(),
            static_cast<std::size_t>(full.num_senders()));
  const std::size_t t = full.num_steps() - 1;
  for (int i = 0; i < full.num_senders(); ++i) {
    ASSERT_EQ(last.windows(i).size(), 1u);
    ASSERT_EQ(last.observed_loss(i).size(), 1u);
    EXPECT_TRUE(same_bits(last.windows(i)[0], full.windows(i)[t]))
        << "sender " << i;
    EXPECT_TRUE(same_bits(last.observed_loss(i)[0], full.observed_loss(i)[t]))
        << "sender " << i;
  }
  EXPECT_TRUE(same_bits(last.total_window()[0], full.total_window()[t]));
  EXPECT_TRUE(same_bits(last.rtt_seconds()[0], full.rtt_seconds()[t]));
  EXPECT_TRUE(
      same_bits(last.congestion_loss()[0], full.congestion_loss()[t]));
}

/// Runs `spec` at full and at last-step detail on `kind` and pins the pair.
/// Returns the full trace's length.
std::size_t pin_last_against_full(ScenarioSpec spec, BackendKind kind) {
  spec.trace_detail = TraceDetail::kFull;
  const Trace full = engine::backend_for(kind).run(spec).trace;
  spec.trace_detail = TraceDetail::kLast;
  const Trace last = engine::backend_for(kind).run(spec).trace;
  expect_last_step_of(last, full);
  return full.num_steps();
}

ScenarioSpec small_spec(long steps) {
  ScenarioSpec spec;
  spec.link = fluid::make_link_mbps(10.0, 40.0, 50.0);
  spec.steps = steps;
  return spec;
}

TEST(TraceLast, ScalarLoopKeepsTheFinalStep) {
  // Count-1 senders from step 0, stateless injected loss, no hooks: the
  // scalar loop's shape, which appends only at the final step.
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
  const auto bbr = cc::make_protocol("bbr");
  ScenarioSpec spec = small_spec(700);
  spec.add_sender(*aimd, 1.0);
  spec.add_sender(*cubic, 30.0);
  spec.add_sender(*bbr, 5.0);
  spec.loss.kind = fluid::LossSpec::Kind::kConstant;
  spec.loss.rate = 0.003;
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kFluid), 700u);

  // A one-step run records its only step.
  spec.steps = 1;
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kFluid), 1u);
}

TEST(TraceLast, ScalarLoopAtTheRobustnessProbeShape) {
  // The probe itself: a lone sender on the fluid "infinite" link.
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  ScenarioSpec spec = small_spec(2500);
  spec.link.bandwidth = Bandwidth::from_mss_per_sec(1e15);
  spec.link.buffer_mss = 1e15;
  spec.add_sender(*aimd, 1.0);
  spec.loss.kind = fluid::LossSpec::Kind::kConstant;
  spec.loss.rate = 0.25;
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kFluid), 2500u);
}

TEST(TraceLast, CohortLoopKeepsTheFinalStep) {
  // A kernel cohort, churn and stateful loss: the cohort loop, every member
  // materialized (a last-step trace needs every window, as a full one does).
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto vegas = cc::make_protocol("vegas(2,4)");
  ScenarioSpec spec = small_spec(600);
  spec.add_senders(*aimd, 5, 2.0);
  spec.add_sender(*vegas, 10.0, 50.0, 450.0);
  spec.loss.kind = fluid::LossSpec::Kind::kBernoulli;
  spec.loss.prob = 0.05;
  spec.loss.rate = 0.02;
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kFluid), 600u);
}

TEST(TraceLast, CohortLoopStoppedByAStepMonitorKeepsItsLastStep) {
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  ScenarioSpec spec = small_spec(900);
  spec.add_senders(*aimd, 3, 1.0);
  spec.step_monitor = [](long step, std::span<const double>, double, double) {
    return step < 123;
  };
  // Steps 0..123 are recorded; the monitor stops the run after step 123.
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kFluid), 124u);
}

TEST(TraceLast, FluidNetworkParkingLotKeepsTheFinalStep) {
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  ScenarioSpec spec = small_spec(500);
  engine::apply_parking_lot(spec, fluid::make_link_mbps(10.0, 20.0, 30.0), 3,
                            *aimd, 2);
  spec.loss.kind = fluid::LossSpec::Kind::kConstant;
  spec.loss.rate = 0.001;
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kFluid), 500u);
}

TEST(TraceLast, PacketSingleLinkKeepsTheFinalStep) {
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
  ScenarioSpec spec = small_spec(150);
  spec.add_sender(*aimd, 1.0);
  spec.add_sender(*cubic, 4.0);
  spec.loss.kind = fluid::LossSpec::Kind::kConstant;
  spec.loss.rate = 0.01;
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kPacket), 150u);
}

TEST(TraceLast, PacketTopologyKeepsTheFinalStep) {
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  ScenarioSpec spec = small_spec(120);
  engine::apply_parking_lot(spec, fluid::make_link_mbps(10.0, 20.0, 30.0), 2,
                            *aimd);
  EXPECT_EQ(pin_last_against_full(spec, BackendKind::kPacket), 120u);
}

TEST(TraceLast, AggregateOnlyAccessorsRejectALastTrace) {
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  ScenarioSpec spec = small_spec(50);
  spec.add_sender(*aimd, 1.0);
  spec.trace_detail = TraceDetail::kLast;
  for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
    const Trace trace = engine::backend_for(kind).run(spec).trace;
    ASSERT_EQ(trace.detail(), TraceDetail::kLast);
    EXPECT_THROW((void)trace.window_min(), ContractViolation);
    EXPECT_THROW((void)trace.window_max(), ContractViolation);
    EXPECT_THROW((void)trace.window_mean(), ContractViolation);
    EXPECT_THROW((void)trace.active_senders(), ContractViolation);
    EXPECT_THROW((void)trace.windows(1), ContractViolation);
  }
}

TEST(TraceLast, AddStepOverwritesTheStepItHolds) {
  Trace trace(2, 10.0, 0.1, TraceDetail::kLast, {});
  EXPECT_EQ(trace.num_steps(), 0u);
  trace.add_step(std::vector<double>{1.0, 2.0}, 0.1, 0.0,
                 std::vector<double>{0.0, 0.0});
  trace.add_step(std::vector<double>{3.0, 4.5}, 0.2, 0.25,
                 std::vector<double>{0.5, 0.75});
  ASSERT_EQ(trace.num_steps(), 1u);
  EXPECT_EQ(trace.windows(0)[0], 3.0);
  EXPECT_EQ(trace.windows(1)[0], 4.5);
  EXPECT_EQ(trace.observed_loss(1)[0], 0.75);
  EXPECT_EQ(trace.total_window()[0], 7.5);
  EXPECT_EQ(trace.rtt_seconds()[0], 0.2);
  EXPECT_EQ(trace.congestion_loss()[0], 0.25);
  // Only aggregate traces take a tracked subset.
  EXPECT_THROW(Trace(2, 10.0, 0.1, TraceDetail::kLast, {0}),
               ContractViolation);
}

}  // namespace
}  // namespace axiomcc
