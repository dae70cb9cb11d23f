// Tests for the `.scn` text format: byte-identical round-trips, schedule
// edge cases, parser rejection paths, parking-lot routes, and the runnable
// engine::ScenarioSpec a file reads into.
#include "fuzz/scenario_text.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/backend.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "fuzz/runner.h"

namespace axiomcc::fuzz {
namespace {

using engine::ScenarioSpec;

ScenarioSpec complex_spec() {
  ScenarioSpec spec = default_scenario();
  spec.link = fluid::make_link_mbps(72.5, 66.0, 48.0);
  spec.steps = 240;
  spec.min_window_mss = 2.0;
  spec.max_window_mss = 5000.0;
  spec.tail_fraction = 0.25;
  spec.seed = 1234567;
  spec.senders = {
      sender_slot("cubic(0.4,0.8)", 10.0, 0.0, -1.0),
      sender_slot("aimd(1, 0.5)", 1.0, 40.0, 200.0),
      sender_slot("aimd(1,0.5)", 2.0, 0.0, -1.0, 6),
  };
  spec.trace_detail = fluid::TraceDetail::kAggregate;
  spec.loss.kind = fluid::LossSpec::Kind::kGilbertElliott;
  spec.loss.p_gb = 0.01;
  spec.loss.p_bg = 0.3;
  spec.loss.good_rate = 0.0;
  spec.loss.bad_rate = 0.1;
  spec.bandwidth_scale.points = {{100, 0.001}, {150, 1.0}};
  spec.rtt_scale.points = {{60, 3.0}};
  return spec;
}

/// Two specs carry the same scenario when they serialize to the same text:
/// the format holds every data field, doubles in shortest exact form.
void expect_same(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(serialize_scenario(a), serialize_scenario(b));
}

TEST(FuzzScenarioText, DefaultRoundTripsByteIdentical) {
  const ScenarioSpec spec = default_scenario();
  const std::string text = serialize_scenario(spec);
  const ScenarioSpec parsed = parse_scenario(text);
  EXPECT_EQ(parsed.link.bandwidth, spec.link.bandwidth);
  EXPECT_EQ(parsed.link.propagation_delay, spec.link.propagation_delay);
  EXPECT_EQ(parsed.steps, 400);
  ASSERT_EQ(parsed.senders.size(), 1u);
  EXPECT_EQ(parsed.senders[0].protocol, "reno");
  EXPECT_EQ(serialize_scenario(parsed), text);
}

TEST(FuzzScenarioText, ComplexRoundTripsByteIdentical) {
  const ScenarioSpec spec = complex_spec();
  const ExpectDesc expect{"divergence", ""};
  const std::string text = serialize_scenario(spec, expect);
  ExpectDesc parsed_expect;
  const ScenarioSpec parsed = parse_scenario(text, &parsed_expect);
  expect_same(parsed, spec);
  EXPECT_EQ(parsed_expect, expect);
  EXPECT_EQ(serialize_scenario(parsed, parsed_expect), text);
}

TEST(FuzzScenarioText, V2WritesTheLinkInEngineUnits) {
  // 30 Mbps of 1500-byte MSS is 2500 MSS/s; a 42 ms RTT is a 21 ms one-way
  // delay. Numbers print in their shortest exact "%g" form (2.5e+03).
  const ScenarioSpec spec = default_scenario();
  const std::string text = serialize_scenario(spec);
  EXPECT_NE(text.find("\nlink 2.5e+03 0.021 1e+02\n"), std::string::npos)
      << text;
  const ScenarioSpec parsed = parse_scenario(text);
  EXPECT_EQ(parsed.link.bandwidth, spec.link.bandwidth);
  EXPECT_EQ(parsed.link.propagation_delay, spec.link.propagation_delay);
  EXPECT_EQ(parsed.link.buffer_mss, spec.link.buffer_mss);
}

TEST(FuzzScenarioText, AllLossKindsRoundTrip) {
  using Kind = fluid::LossSpec::Kind;
  for (const Kind kind : {Kind::kNone, Kind::kConstant, Kind::kBernoulli,
                          Kind::kGilbertElliott, Kind::kStorm}) {
    ScenarioSpec spec = default_scenario();
    spec.loss.kind = kind;
    spec.loss.rate = 0.05;
    spec.loss.prob = 0.2;
    spec.loss.p_gb = 0.01;
    spec.loss.p_bg = 0.25;
    spec.loss.good_rate = 0.001;
    spec.loss.bad_rate = 0.3;
    spec.loss.start = 100;
    spec.loss.end = 180;
    const std::string text = serialize_scenario(spec);
    const ScenarioSpec parsed = parse_scenario(text);
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
  const std::string plain = serialize_scenario(default_scenario());
  EXPECT_EQ(plain.find("trace "), std::string::npos) << plain;
  EXPECT_EQ(plain.find("senders "), std::string::npos) << plain;

  ScenarioSpec spec = default_scenario();
  spec.trace_detail = fluid::TraceDetail::kAggregate;
  spec.senders = {sender_slot("reno", 1.0, 0.0, -1.0, 4)};
  const std::string text = serialize_scenario(spec);
  EXPECT_NE(text.find("trace aggregate\n"), std::string::npos) << text;
  EXPECT_NE(text.find("senders 4 1 0 -1 reno\n"), std::string::npos) << text;
  expect_same(parse_scenario(text), spec);
}

TEST(FuzzScenarioText, ExplicitDefaultAxesParseBackToDefaults) {
  const ScenarioSpec parsed = parse_scenario(
      "axiomcc-scenario v2\ntrace full\nsenders 1 1 0 -1 reno\n");
  expect_same(parsed, default_scenario());
  // The fluid backend picks its step loop from the run's shape; there is
  // no execution-mode directive.
  EXPECT_THROW(parse_scenario(
                   "axiomcc-scenario v2\nexec batch\nsender 1 0 -1 reno\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, BadAxisValuesRejected) {
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\ntrace sometimes\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  // Cohort counts below one are a domain violation.
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\nsenders 0 1 0 -1 reno\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, TopologyAndWorkloadAxesRoundTripByteIdentical) {
  // Default: no topology/workload directives, so pre-axis corpus files keep
  // round-tripping byte-identically.
  const std::string plain = serialize_scenario(default_scenario());
  EXPECT_EQ(plain.find("topology"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("route"), std::string::npos) << plain;
  EXPECT_EQ(plain.find("workload "), std::string::npos) << plain;

  // v2 spells the topology out: one line per link, one route line after
  // each routed sender.
  ScenarioSpec spec = default_scenario();
  spec.topology.links.assign(3, spec.link);
  spec.workload.kind = engine::WorkloadKind::kIncast;
  spec.workload.flows = 4;
  spec.workload.spread_steps = 16.0;
  spec.senders = {sender_slot("reno"), sender_slot("reno")};
  route_parking_lot(spec);
  const std::string text = serialize_scenario(spec);
  EXPECT_NE(text.find("topology-link 2.5e+03 0.021 1e+02\n"
                      "topology-link 2.5e+03 0.021 1e+02\n"
                      "topology-link 2.5e+03 0.021 1e+02\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sender 1 0 -1 reno\nroute 0 1 2\n"
                      "sender 1 0 -1 reno\nroute 0\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("workload incast 4 16\n"), std::string::npos) << text;
  const ScenarioSpec parsed = parse_scenario(text);
  ASSERT_EQ(parsed.topology.num_links(), 3);
  EXPECT_EQ(parsed.senders[0].route, (std::vector<int>{0, 1, 2}));
  expect_same(parsed, spec);
  EXPECT_EQ(serialize_scenario(parsed), text);

  ScenarioSpec onoff = default_scenario();
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
  expect_same(parse_scenario(onoff_text), onoff);
  EXPECT_EQ(serialize_scenario(parse_scenario(onoff_text)), onoff_text);
}

TEST(FuzzScenarioText, BadTopologyAndWorkloadRejected) {
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\ntopology-link 2500 0.021\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\n"
                              "topology-link 2500 -0.021 100\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\nworkload incast 0 16\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\nworkload onoff 2 0 25 1.5\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\nworkload poisson 3\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, ParkingLotCompilesDerivedRoutes) {
  // route_parking_lot lays routes over k copies of the link; the routes
  // it derives survive the text form.
  ScenarioSpec spec = default_scenario();
  spec.topology.links.assign(2, spec.link);
  spec.senders.assign(4, sender_slot("reno"));
  route_parking_lot(spec);
  spec = parse_scenario(serialize_scenario(spec));
  ASSERT_EQ(spec.topology.num_links(), 2);
  ASSERT_EQ(spec.senders.size(), 4u);
  // Slot 0 is the long flow over every bottleneck; slot i >= 1 crosses
  // bottleneck (i-1) mod k.
  EXPECT_EQ(spec.senders[0].route, (std::vector<int>{0, 1}));
  EXPECT_EQ(spec.senders[1].route, (std::vector<int>{0}));
  EXPECT_EQ(spec.senders[2].route, (std::vector<int>{1}));
  EXPECT_EQ(spec.senders[3].route, (std::vector<int>{0}));
  // The lowered spec passes the engine's route validation.
  EXPECT_NO_THROW(engine::validate_scenario(spec));
}

TEST(FuzzScenarioText, WorkloadCompilesToEngineSpec) {
  ScenarioSpec spec = default_scenario();
  spec.workload.kind = engine::WorkloadKind::kIncast;
  spec.workload.flows = 4;
  spec.workload.spread_steps = 16.0;
  spec.trace_detail = fluid::TraceDetail::kAggregate;
  const ScenarioSpec parsed = parse_scenario(serialize_scenario(spec));
  EXPECT_EQ(parsed.workload.kind, engine::WorkloadKind::kIncast);
  EXPECT_EQ(parsed.workload.flows, 4);
  // The oracle's aggregate trace tracks the EXPANDED population (4 incast
  // arrivals from the one template slot), not the template count.
  EXPECT_EQ(oracle_spec(parsed).tracked_senders, 4);
}

TEST(FuzzScenarioText, LeadingCommentsBeforeHeaderAccepted) {
  const std::string text =
      "# triage note\n\n# another\n" + serialize_scenario(default_scenario());
  expect_same(parse_scenario(text), default_scenario());
}

TEST(FuzzScenarioText, MissingHeaderRejected) {
  EXPECT_THROW(parse_scenario("link 2500 0.021 100\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario(""), std::invalid_argument);
  // v2 is the only format.
  EXPECT_THROW(parse_scenario("axiomcc-scenario v1\nsender 1 0 -1 reno\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, OutOfOrderScheduleTimestampsRejected) {
  const std::string base =
      "axiomcc-scenario v2\nsender 1 0 -1 reno\n";
  EXPECT_THROW(parse_scenario(base + "bw 100 0.5 50 2\n"),
               std::invalid_argument);
  // Duplicate timestamps are out-of-order too (strictly increasing).
  EXPECT_THROW(parse_scenario(base + "rtt 100 0.5 100 2\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, DuplicateScalarLineRejected) {
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v2\nsteps 100\nsteps 200\n"
                     "sender 1 0 -1 reno\n"),
      std::invalid_argument);
}

TEST(FuzzScenarioText, MalformedNumberRejected) {
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v2\nsteps banana\nsender 1 0 -1 reno\n"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v2\nlink 2500 nan 100\n"
                     "sender 1 0 -1 reno\n"),
      std::invalid_argument);
}

TEST(FuzzScenarioText, UnknownDirectiveRejected) {
  EXPECT_THROW(
      parse_scenario("axiomcc-scenario v2\nfrobnicate 3\nsender 1 0 -1 reno\n"),
      std::invalid_argument);
}

TEST(FuzzScenarioText, ScenarioWithoutSendersRejected) {
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\nsteps 100\n"),
               std::invalid_argument);
}

TEST(FuzzScenarioText, TailOfOneRejected) {
  // A tail fraction of 1 leaves no tail to score: every estimator and the
  // packet backend's per-flow reports need at least one sample.
  const std::string text =
      "axiomcc-scenario v2\nsteps 60\ntail 1\nsender 1 0 -1 reno\n";
  EXPECT_THROW(parse_scenario(text), std::invalid_argument);
  EXPECT_NO_THROW(parse_scenario(
      "axiomcc-scenario v2\nsteps 60\ntail 0.99\nsender 1 0 -1 reno\n"));
}

TEST(FuzzScenarioText, DomainViolationsRejected) {
  ScenarioSpec spec = default_scenario();
  spec.link.bandwidth = Bandwidth::from_mss_per_sec(-1.0);
  EXPECT_THROW(check_readable(spec), std::invalid_argument);
  spec = default_scenario();
  spec.tail_fraction = 0.0;
  EXPECT_THROW(check_readable(spec), std::invalid_argument);
  spec = default_scenario();
  spec.loss.kind = fluid::LossSpec::Kind::kConstant;
  spec.loss.rate = 1.0;
  EXPECT_THROW(check_readable(spec), std::invalid_argument);
  spec = default_scenario();
  spec.bandwidth_scale.points = {{10, -2.0}};
  EXPECT_THROW(check_readable(spec), std::invalid_argument);
  // More than 16 topology links is over the reader's cap.
  spec = default_scenario();
  spec.topology.links.assign(17, spec.link);
  route_parking_lot(spec);
  EXPECT_THROW(check_readable(spec), std::invalid_argument);
  // Storm windows must satisfy 0 <= start < end: an empty or negative
  // window is a typed parse error, not a fault inside the run.
  const std::string base = "axiomcc-scenario v2\nsender 1 0 -1 reno\n";
  EXPECT_THROW(parse_scenario(base + "loss storm 10 10 0.2 0.3 0 0.3\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(base + "loss storm -5 50 0.2 0.3 0 0.3\n"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_scenario(base + "loss storm 10 50 0.2 0.3 0 0.3\n"));
}

TEST(FuzzScenarioText, CompilesToRunnableSpec) {
  const ScenarioSpec spec = complex_spec();
  const ScenarioSpec parsed = parse_scenario(serialize_scenario(spec));
  const ScenarioSpec oracle = oracle_spec(parsed);
  EXPECT_EQ(oracle.steps, spec.steps);
  EXPECT_EQ(oracle.senders.size(), spec.senders.size());
  // The backends build one prototype per slot that names a spec.
  EXPECT_EQ(engine::make_run_slots(oracle).protocols.size(),
            spec.senders.size());
  // The cohort slot keeps its count; the aggregate trace tracks the whole
  // (expanded) population so the estimators see every sender's series.
  EXPECT_EQ(oracle.senders.back().count, 6);
  EXPECT_EQ(oracle.total_senders(), 8);
  EXPECT_EQ(oracle.trace_detail, fluid::TraceDetail::kAggregate);
  EXPECT_EQ(oracle.tracked_senders, 8);
  EXPECT_EQ(oracle.bandwidth_scale, spec.bandwidth_scale);
  EXPECT_DOUBLE_EQ(oracle.bandwidth_scale.at(120), 0.001);
  EXPECT_DOUBLE_EQ(oracle.bandwidth_scale.at(0), 1.0);
  EXPECT_EQ(oracle.rtt_scale, spec.rtt_scale);
  EXPECT_DOUBLE_EQ(oracle.rtt_scale.at(60), 3.0);
  EXPECT_EQ(oracle.loss, spec.loss);
  // And the spec runs on its own: no prototype outlives it.
  const ScenarioSpec copy = oracle;
  EXPECT_EQ(engine::backend_for(engine::BackendKind::kFluid)
                .run(copy)
                .trace.num_senders(),
            8);
}

TEST(FuzzScenarioText, CompileRejectsBadProtocolSpec) {
  ScenarioSpec spec = default_scenario();
  spec.senders = {sender_slot("no-such-protocol", 1.0, 0.0, -1.0)};
  EXPECT_THROW(engine::validate_scenario(spec), engine::ScenarioError);
  EXPECT_THROW(
      (void)engine::backend_for(engine::BackendKind::kFluid).run(spec),
      engine::ScenarioError);
}

TEST(FuzzScenarioText, RouteToMissingLinkRejected) {
  const std::string text =
      "axiomcc-scenario v2\n"
      "link 2500 0.021 100\n"
      "topology-link 2500 0.021 100\n"
      "topology-link 2500 0.021 100\n"
      "sender 1 0 -1 reno\n"
      "route 0 2\n";
  // The reader leaves routes to the engine, which rejects them on every
  // path into a run.
  const ScenarioSpec spec = parse_scenario(text);
  EXPECT_THROW(engine::validate_scenario(spec), engine::ScenarioError);
  for (const auto kind :
       {engine::BackendKind::kFluid, engine::BackendKind::kPacket}) {
    EXPECT_THROW((void)engine::backend_for(kind).run(spec),
                 engine::ScenarioError);
  }
  // A route needs a sender before it, and one per sender.
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\nroute 0\n"
                              "sender 1 0 -1 reno\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("axiomcc-scenario v2\ntopology-link 2500 "
                              "0.021 100\nsender 1 0 -1 reno\nroute 0\n"
                              "route 0\n"),
               std::invalid_argument);
}

}  // namespace
}  // namespace axiomcc::fuzz
