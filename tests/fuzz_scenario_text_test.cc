// Tests for the fuzz scenario text format: byte-identical round-trips,
// schedule edge cases, parser rejection paths, and compilation down to a
// runnable ScenarioSpec.
#include "fuzz/scenario_text.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/topology.h"

namespace axiomcc::fuzz {
namespace {

ScenarioDesc complex_desc() {
  ScenarioDesc desc;
  desc.bandwidth_mbps = 72.5;
  desc.rtt_ms = 66.0;
  desc.buffer_mss = 48.0;
  desc.steps = 240;
  desc.min_window_mss = 2.0;
  desc.max_window_mss = 5000.0;
  desc.tail_fraction = 0.25;
  desc.seed = 1234567;
  desc.senders = {
      SenderDesc{"cubic(0.4,0.8)", 10.0, 0.0, -1.0},
      SenderDesc{"aimd(1, 0.5)", 1.0, 40.0, 200.0},
      SenderDesc{"aimd(1,0.5)", 2.0, 0.0, -1.0, 6},
  };
  desc.aggregate_trace = true;
  desc.loss.kind = fluid::LossSpec::Kind::kGilbertElliott;
  desc.loss.p_gb = 0.01;
  desc.loss.p_bg = 0.3;
  desc.loss.good_rate = 0.0;
  desc.loss.bad_rate = 0.1;
  desc.bandwidth_scale.points = {{100, 0.001}, {150, 1.0}};
  desc.rtt_scale.points = {{60, 3.0}};
  desc.expect = ExpectDesc{"divergence", ""};
  return desc;
}

TEST(FuzzScenarioText, DefaultRoundTripsByteIdentical) {
  const ScenarioDesc desc;
  const std::string text = serialize_scenario(desc);
  const ScenarioDesc parsed = parse_scenario(text);
  EXPECT_EQ(parsed, desc);
  EXPECT_EQ(serialize_scenario(parsed), text);
}

TEST(FuzzScenarioText, ComplexRoundTripsByteIdentical) {
  const ScenarioDesc desc = complex_desc();
  const std::string text = serialize_scenario(desc);
  const ScenarioDesc parsed = parse_scenario(text);
  EXPECT_EQ(parsed, desc);
  EXPECT_EQ(serialize_scenario(parsed), text);
}

TEST(FuzzScenarioText, AllLossKindsRoundTrip) {
  using Kind = fluid::LossSpec::Kind;
  for (const Kind kind : {Kind::kNone, Kind::kConstant, Kind::kBernoulli,
                          Kind::kGilbertElliott, Kind::kStorm}) {
    ScenarioDesc desc;
    desc.loss.kind = kind;
    desc.loss.rate = 0.05;
    desc.loss.prob = 0.2;
    desc.loss.p_gb = 0.01;
    desc.loss.p_bg = 0.25;
    desc.loss.good_rate = 0.001;
    desc.loss.bad_rate = 0.3;
    desc.loss.start = 100;
    desc.loss.end = 180;
    const std::string text = serialize_scenario(desc);
    const ScenarioDesc parsed = parse_scenario(text);
    EXPECT_EQ(parsed.loss.kind, kind);
    EXPECT_EQ(serialize_scenario(parsed), text) << text;
  }
}

TEST(FuzzScenarioText, FormatDoubleIsShortestExact) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-3, 42.0, 1e9, 0.0, 2.5e-17}) {
    const std::string s = format_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(format_double(42.0), "42");
  EXPECT_EQ(format_double(0.1), "0.1");
}

TEST(FuzzScenarioText, EmptyScheduleIsIdentity) {
  const fluid::Schedule schedule;
  EXPECT_TRUE(schedule.empty());
  EXPECT_DOUBLE_EQ(schedule.at(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.at(1000), 1.0);
}

TEST(FuzzScenarioText, SingleStepScheduleHoldsFromBreakpoint) {
  fluid::Schedule schedule;
  schedule.points = {{100, 0.5}};
  EXPECT_DOUBLE_EQ(schedule.at(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.at(99), 1.0);
  EXPECT_DOUBLE_EQ(schedule.at(100), 0.5);
  EXPECT_DOUBLE_EQ(schedule.at(5000), 0.5);
}

TEST(FuzzScenarioText, ExecutionAxesEmittedOnlyWhenNonDefault) {
  // Pre-axis corpus files must keep round-tripping byte-identically, so the
  // default (full trace, singleton senders) serializes without any of the
  // new directives.
  const std::string plain = serialize_scenario(ScenarioDesc{});
  EXPECT_EQ(plain.find("trace "), std::string::npos) << plain;
  EXPECT_EQ(plain.find("exec "), std::string::npos) << plain;
  EXPECT_EQ(plain.find("senders "), std::string::npos) << plain;

  ScenarioDesc desc;
  desc.aggregate_trace = true;
  desc.senders = {SenderDesc{"reno", 1.0, 0.0, -1.0, 4}};
  const std::string text = serialize_scenario(desc);
  EXPECT_NE(text.find("trace aggregate\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("exec "), std::string::npos) << text;
  EXPECT_NE(text.find("senders 4 1 0 -1 reno\n"), std::string::npos) << text;
  EXPECT_EQ(parse_scenario(text), desc);
}

TEST(FuzzScenarioText, ExplicitDefaultAxesParseBackToDefaults) {
  const ScenarioDesc parsed = parse_scenario(
      "axiomcc-scenario v1\ntrace full\nexec scalar\nsender 1 0 -1 reno\n");
  EXPECT_EQ(parsed, ScenarioDesc{});
  // The retired execution modes parse as no-ops, so older corpus files
  // replay unchanged.
  EXPECT_EQ(parse_scenario(
                "axiomcc-scenario v1\nexec batch\nsender 1 0 -1 reno\n"),
            ScenarioDesc{});
}

TEST(FuzzScenarioText, BadAxisValuesRejected) {
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\ntrace sometimes\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nexec warp\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  // Cohort counts below one are a domain violation.
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nsenders 0 1 0 -1 reno\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, TopologyAndWorkloadAxesRoundTripByteIdentical) {
  // Default: no topology/workload directives, so pre-axis corpus files keep
  // round-tripping byte-identically.
  const std::string plain = serialize_scenario(ScenarioDesc{});
  EXPECT_EQ(plain.find("topology "), std::string::npos) << plain;
  EXPECT_EQ(plain.find("workload "), std::string::npos) << plain;

  ScenarioDesc desc;
  desc.topology_bottlenecks = 3;
  desc.workload.kind = engine::WorkloadKind::kIncast;
  desc.workload.flows = 4;
  desc.workload.spread_steps = 16.0;
  desc.senders = {SenderDesc{"reno", 1.0, 0.0, -1.0},
                  SenderDesc{"reno", 1.0, 0.0, -1.0}};
  const std::string text = serialize_scenario(desc);
  EXPECT_NE(text.find("topology parking-lot 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("workload incast 4 16\n"), std::string::npos) << text;
  const ScenarioDesc parsed = parse_scenario(text);
  EXPECT_EQ(parsed, desc);
  EXPECT_EQ(serialize_scenario(parsed), text);

  ScenarioDesc onoff;
  onoff.workload.kind = engine::WorkloadKind::kOnOffHeavyTail;
  onoff.workload.flows = 2;
  onoff.workload.mean_on_steps = 40.0;
  onoff.workload.mean_off_steps = 25.0;
  onoff.workload.alpha = 1.5;
  const std::string onoff_text = serialize_scenario(onoff);
  // 40 renders as 4e+01: the shortest-exact writer prefers the lowest
  // precision that round-trips, as for the link line's 3e+01.
  EXPECT_NE(onoff_text.find("workload onoff 2 4e+01 25 1.5\n"),
            std::string::npos)
      << onoff_text;
  EXPECT_EQ(parse_scenario(onoff_text), onoff);
  EXPECT_EQ(serialize_scenario(parse_scenario(onoff_text)), onoff_text);
}

TEST(FuzzScenarioText, BadTopologyAndWorkloadRejected) {
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\ntopology fat-tree 2\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\ntopology parking-lot -1\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nworkload incast 0 16\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nworkload onoff 2 0 25 1.5\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nworkload poisson 3\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, ParkingLotCompilesDerivedRoutes) {
  ScenarioDesc desc;
  desc.topology_bottlenecks = 2;
  desc.senders = {SenderDesc{"reno", 1.0, 0.0, -1.0},
                  SenderDesc{"reno", 1.0, 0.0, -1.0},
                  SenderDesc{"reno", 1.0, 0.0, -1.0},
                  SenderDesc{"reno", 1.0, 0.0, -1.0}};
  const CompiledScenario compiled = compile_scenario(desc);
  ASSERT_EQ(compiled.spec.topology.num_links(), 2);
  ASSERT_EQ(compiled.spec.senders.size(), 4u);
  // Slot 0 is the long flow over every bottleneck; slot i >= 1 crosses
  // bottleneck (i-1) mod k.
  EXPECT_EQ(compiled.spec.senders[0].route, (std::vector<int>{0, 1}));
  EXPECT_EQ(compiled.spec.senders[1].route, (std::vector<int>{0}));
  EXPECT_EQ(compiled.spec.senders[2].route, (std::vector<int>{1}));
  EXPECT_EQ(compiled.spec.senders[3].route, (std::vector<int>{0}));
  // The compiled spec passes the engine's route validation.
  EXPECT_NO_THROW(engine::validate_scenario(compiled.spec));
}

TEST(FuzzScenarioText, WorkloadCompilesToEngineSpec) {
  ScenarioDesc desc;
  desc.workload.kind = engine::WorkloadKind::kIncast;
  desc.workload.flows = 4;
  desc.workload.spread_steps = 16.0;
  desc.aggregate_trace = true;
  const CompiledScenario compiled = compile_scenario(desc);
  EXPECT_EQ(compiled.spec.workload.kind, engine::WorkloadKind::kIncast);
  EXPECT_EQ(compiled.spec.workload.flows, 4);
  // The aggregate trace tracks the EXPANDED population (4 incast arrivals
  // from the one template slot), not the template count.
  EXPECT_EQ(compiled.spec.tracked_senders, 4);
}

TEST(FuzzScenarioText, LeadingCommentsBeforeHeaderAccepted) {
  const std::string text =
      "# triage note\n\n# another\n" + serialize_scenario(ScenarioDesc{});
  EXPECT_EQ(parse_scenario(text), ScenarioDesc{});
}

TEST(FuzzScenarioText, MissingHeaderRejected) {
  EXPECT_THROW(parse_scenario("link 30 42 100\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario(""), std::invalid_argument);
}

TEST(FuzzScenarioText, OutOfOrderScheduleTimestampsRejected) {
  const std::string base =
      "axiomcc-scenario v1\nsender 1 0 -1 reno\n";
  EXPECT_THROW(parse_scenario(base + "bw 100 0.5 50 2\n"),
               std::invalid_argument);
  // Duplicate timestamps are out-of-order too (strictly increasing).
  EXPECT_THROW(parse_scenario(base + "rtt 100 0.5 100 2\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, DuplicateScalarLineRejected) {
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v1\nsteps 100\nsteps 200\n"
                     "sender 1 0 -1 reno\n"),
      std::invalid_argument);
}

TEST(FuzzScenarioText, MalformedNumberRejected) {
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v1\nsteps banana\nsender 1 0 -1 reno\n"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v1\nlink 30 nan 100\n"
                     "sender 1 0 -1 reno\n"),
      std::invalid_argument);
}

TEST(FuzzScenarioText, UnknownDirectiveRejected) {
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v1\nfrobnicate 3\nsender 1 0 -1 reno\n"),
      std::invalid_argument);
}

TEST(FuzzScenarioText, ScenarioWithoutSendersRejected) {
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nsteps 100\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, TailOfOneRejected) {
  // A tail fraction of 1 leaves no tail to score: every estimator and the
  // packet backend's per-flow reports need at least one sample.
  const std::string text =
      "axiomcc-scenario v1\nsteps 60\ntail 1\nsender 1 0 -1 reno\n";
  EXPECT_THROW(parse_scenario(text), std::invalid_argument);
  EXPECT_NO_THROW(parse_scenario(
      "axiomcc-scenario v1\nsteps 60\ntail 0.99\nsender 1 0 -1 reno\n"));
}

TEST(FuzzScenarioText, DomainViolationsRejected) {
  ScenarioDesc desc;
  desc.bandwidth_mbps = -1.0;
  EXPECT_THROW(validate_scenario(desc), std::invalid_argument);
  desc = ScenarioDesc{};
  desc.tail_fraction = 0.0;
  EXPECT_THROW(validate_scenario(desc), std::invalid_argument);
  desc = ScenarioDesc{};
  desc.loss.kind = fluid::LossSpec::Kind::kConstant;
  desc.loss.rate = 1.0;
  EXPECT_THROW(validate_scenario(desc), std::invalid_argument);
  desc = ScenarioDesc{};
  desc.bandwidth_scale.points = {{10, -2.0}};
  EXPECT_THROW(validate_scenario(desc), std::invalid_argument);
  // Storm windows must satisfy 0 <= start < end: an empty or negative
  // window is a typed parse error, not a fault inside the run.
  const std::string base = "axiomcc-scenario v1\nsender 1 0 -1 reno\n";
  EXPECT_THROW(parse_scenario(base + "loss storm 10 10 0.2 0.3 0 0.3\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(base + "loss storm -5 50 0.2 0.3 0 0.3\n"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_scenario(base + "loss storm 10 50 0.2 0.3 0 0.3\n"));
}

TEST(FuzzScenarioText, CompilesToRunnableSpec) {
  ScenarioDesc desc = complex_desc();
  const CompiledScenario compiled = compile_scenario(desc);
  EXPECT_EQ(compiled.spec.steps, desc.steps);
  EXPECT_EQ(compiled.spec.senders.size(), desc.senders.size());
  EXPECT_EQ(compiled.prototypes.size(), desc.senders.size());
  // The cohort slot keeps its count; the aggregate trace tracks the whole
  // (expanded) population so the estimators see every sender's series; the
  // fluid backend runs at jobs=1.
  EXPECT_EQ(compiled.spec.senders.back().count, 6);
  EXPECT_EQ(compiled.spec.total_senders(), 8);
  EXPECT_EQ(compiled.spec.trace_detail, fluid::TraceDetail::kAggregate);
  EXPECT_EQ(compiled.spec.tracked_senders, 8);
  EXPECT_EQ(compiled.spec.jobs, 1);
  EXPECT_EQ(compiled.spec.bandwidth_scale, desc.bandwidth_scale);
  EXPECT_DOUBLE_EQ(compiled.spec.bandwidth_scale.at(120), 0.001);
  EXPECT_DOUBLE_EQ(compiled.spec.bandwidth_scale.at(0), 1.0);
  EXPECT_EQ(compiled.spec.rtt_scale, desc.rtt_scale);
  EXPECT_DOUBLE_EQ(compiled.spec.rtt_scale.at(60), 3.0);
  EXPECT_EQ(compiled.spec.loss, desc.loss);
}

TEST(FuzzScenarioText, CompileRejectsBadProtocolSpec) {
  ScenarioDesc desc;
  desc.senders = {SenderDesc{"no-such-protocol", 1.0, 0.0, -1.0}};
  EXPECT_THROW((void)compile_scenario(desc), std::invalid_argument);
}

}  // namespace
}  // namespace axiomcc::fuzz
