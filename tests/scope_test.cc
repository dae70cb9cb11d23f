// Streaming axiom-scope tests: window mechanics on synthetic feeds, the
// byte-identity contract across the fluid engine's three tick loops and any
// job count, per-link channels on routed topologies, kMetric emission
// through the flight recorder, the v2 recording round-trip (provenance
// SHA), and the aligner's handling of metric windows — including 0-valued
// windows, which must compare at absolute scale, not divide-by-almost-zero
// into a false divergence.
#include "scope/scope.h"

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "engine/backend.h"
#include "engine/scenario.h"
#include "engine/topology.h"
#include "fluid/sim.h"
#include "fuzz/runner.h"
#include "fuzz/scenario_text.h"
#include "recorder/align.h"
#include "recorder/io.h"
#include "recorder/recorder.h"

namespace axiomcc::scope {
namespace {

/// Exact bit pattern of a series — the byte-identity oracle (plain == would
/// conflate 0.0 with -0.0 and choke on NaN).
std::vector<std::uint64_t> series_bits(const ScopeSeries& series) {
  std::vector<std::uint64_t> bits;
  for (const Channel& c : series.channels) {
    bits.push_back(static_cast<std::uint64_t>(c.kind));
    bits.push_back(static_cast<std::uint64_t>(c.subject));
    bits.push_back(static_cast<std::uint64_t>(c.axis));
    for (const WindowSample& w : c.samples) {
      bits.push_back(static_cast<std::uint64_t>(w.start_step));
      bits.push_back(static_cast<std::uint64_t>(w.end_step));
      bits.push_back(std::bit_cast<std::uint64_t>(w.value));
    }
  }
  for (const WindowSample& w : series.jain) {
    bits.push_back(std::bit_cast<std::uint64_t>(w.value));
  }
  return bits;
}

TEST(MetricScope, ClosesWindowsAtTheConfiguredStride) {
  ScopeConfig config;
  config.enabled = true;
  config.window_steps = 4;
  config.warmup_steps = 0;
  config.capacity_mss = 100.0;
  config.min_rtt_seconds = 0.1;
  MetricScope scope(config);
  scope.begin_run(/*num_classes=*/2, /*num_links=*/0);

  for (long step = 0; step < 10; ++step) {
    const double w0 = 10.0;
    const double w1 = 30.0;
    scope.step_begin(step, w0 + w1, 0.1, step == 5 ? 0.25 : 0.0);
    scope.observe_class(0, w0, 0.0);
    scope.observe_class(1, w1, 0.0);
    scope.step_end();
  }
  scope.finish();

  const Channel* eff = scope.series().find(SubjectKind::kRun, -1,
                                           Axis::kEfficiency);
  ASSERT_NE(eff, nullptr);
  // Steps 0..9 at 4 per window: [0,3], [4,7], and the partial [8,9]
  // flushed by finish().
  ASSERT_EQ(eff->samples.size(), 3u);
  EXPECT_EQ(eff->samples[0].start_step, 0);
  EXPECT_EQ(eff->samples[0].end_step, 3);
  EXPECT_EQ(eff->samples[1].start_step, 4);
  EXPECT_EQ(eff->samples[1].end_step, 7);
  EXPECT_EQ(eff->samples[2].start_step, 8);
  EXPECT_EQ(eff->samples[2].end_step, 9);
  EXPECT_DOUBLE_EQ(eff->samples[0].value, 40.0 / 100.0);

  // Loss lands only in the window containing step 5.
  const Channel* loss = scope.series().find(SubjectKind::kRun, -1,
                                            Axis::kLossAvoidance);
  ASSERT_NE(loss, nullptr);
  EXPECT_DOUBLE_EQ(loss->samples[0].value, 0.0);
  EXPECT_DOUBLE_EQ(loss->samples[1].value, 0.25);
  EXPECT_DOUBLE_EQ(loss->samples[2].value, 0.0);

  // Constant 10-vs-30 split: min/max fairness 1/3 in every window.
  EXPECT_DOUBLE_EQ(
      scope.series().last(SubjectKind::kRun, -1, Axis::kFairness, -1.0),
      10.0 / 30.0);
  // RTT never leaves the baseline: zero inflation.
  EXPECT_DOUBLE_EQ(
      scope.series().last(SubjectKind::kRun, -1, Axis::kLatencyAvoidance,
                          -1.0),
      0.0);
  // Jain index of (10, 30): (40)^2 / (2 * 1000) = 0.8.
  ASSERT_EQ(scope.series().jain.size(), 3u);
  EXPECT_DOUBLE_EQ(scope.series().jain[0].value, 0.8);
}

TEST(MetricScope, FullHorizonModeProducesOneWindowAndFinishIsIdempotent) {
  ScopeConfig config;
  config.enabled = true;
  config.window_steps = 0;
  config.warmup_steps = 0;
  config.capacity_mss = 50.0;
  MetricScope scope(config);
  scope.begin_run(1, 0);
  for (long step = 0; step < 20; ++step) {
    scope.step_begin(step, 25.0, 0.05, 0.0);
    scope.observe_class(0, 25.0, 0.0);
    scope.step_end();
  }
  scope.finish();
  scope.finish();

  const Channel* eff = scope.series().find(SubjectKind::kRun, -1,
                                           Axis::kEfficiency);
  ASSERT_NE(eff, nullptr);
  ASSERT_EQ(eff->samples.size(), 1u);
  EXPECT_EQ(eff->samples[0].start_step, 0);
  EXPECT_EQ(eff->samples[0].end_step, 19);
  EXPECT_DOUBLE_EQ(eff->samples[0].value, 0.5);
  // One sender: trivially fair and convergent.
  EXPECT_DOUBLE_EQ(scope.run_estimate(Axis::kFairness), 1.0);
  EXPECT_DOUBLE_EQ(scope.run_estimate(Axis::kConvergence), 1.0);
  // Loss-free run: the robustness proxy reports 1.
  EXPECT_DOUBLE_EQ(scope.run_estimate(Axis::kRobustness), 1.0);
}

TEST(MetricScope, WarmupExcludesTheTransientPrefix) {
  ScopeConfig config;
  config.enabled = true;
  config.warmup_steps = 10;
  config.capacity_mss = 100.0;
  MetricScope scope(config);
  scope.begin_run(1, 0);
  for (long step = 0; step < 20; ++step) {
    // A transient dip inside the warmup must not drag the tail minimum.
    const double total = step < 10 ? 1.0 : 80.0;
    scope.step_begin(step, total, 0.05, step < 10 ? 0.9 : 0.0);
    scope.observe_class(0, total, 0.0);
    scope.step_end();
  }
  scope.finish();
  const Channel* eff = scope.series().find(SubjectKind::kRun, -1,
                                           Axis::kEfficiency);
  ASSERT_NE(eff, nullptr);
  ASSERT_EQ(eff->samples.size(), 1u);
  EXPECT_EQ(eff->samples[0].start_step, 10);
  EXPECT_DOUBLE_EQ(eff->samples[0].value, 0.8);
  EXPECT_DOUBLE_EQ(scope.run_estimate(Axis::kLossAvoidance), 0.0);
}

TEST(MetricScope, CountedObserveMatchesRepeatedObserveBitwise) {
  const auto run = [](long count, bool counted) {
    ScopeConfig config;
    config.enabled = true;
    config.warmup_steps = 0;
    config.capacity_mss = 10.0;
    MetricScope scope(config);
    scope.begin_run(1, 0);
    for (long step = 0; step < 8; ++step) {
      const double w = 0.1 + 0.3 * static_cast<double>(step);
      scope.step_begin(step, static_cast<double>(count) * w, 0.05, 0.0);
      if (counted) {
        scope.observe_class(0, w, 0.0, count);
      } else {
        for (long k = 0; k < count; ++k) scope.observe_class(0, w, 0.0);
      }
      scope.step_end();
    }
    scope.finish();
    return series_bits(scope.series());
  };
  for (const long count : {7L, 100000L}) {
    EXPECT_EQ(run(count, true), run(count, false)) << "count=" << count;
  }
}

/// Runs one fluid scenario (three AIMD cohorts, late joiner, early leaver,
/// mid-run bandwidth drop) and returns the scope series. `materialized`
/// installs a pass-through step monitor, which makes the simulation store
/// every member even where uniform representatives would do.
ScopeSeries fluid_series(bool materialized, fluid::TraceDetail detail,
                         long window_steps) {
  ScopeConfig config;
  config.enabled = true;
  config.window_steps = window_steps;
  MetricScope scope(config);

  fluid::SimOptions options;
  options.steps = 96;
  options.trace_detail = detail;
  options.scope_sink = &scope;
  fluid::FluidSimulation sim(fluid::make_link_mbps(24.0, 40.0, 30.0),
                             options);
  const auto cohort = [](long start, long stop) {
    fluid::SenderSpec spec;
    spec.protocol = cc::make_protocol("aimd(1,0.5)");
    spec.initial_window_mss = 2.0;
    spec.start_step = start;
    spec.stop_step = stop;
    return spec;
  };
  sim.add_senders(cohort(0, -1), 16);
  sim.add_senders(cohort(10, -1), 8);
  sim.add_senders(cohort(0, 60), 8);
  sim.set_bandwidth_schedule(fluid::Schedule{{{48, 0.5}}});
  if (materialized) {
    sim.set_step_monitor(
        [](long, std::span<const double>, double, double) { return true; });
  }
  (void)sim.run();
  return scope.series();
}

TEST(ScopeDeterminism, FullAndAggregateDetailSeriesAreByteIdentical) {
  // Trace retention does not reach the scope: a full-detail run (every
  // member stored) and an aggregate run (uniform representatives) observe
  // the same bits.
  const auto full =
      fluid_series(false, fluid::TraceDetail::kFull, /*window=*/16);
  const auto aggregate =
      fluid_series(false, fluid::TraceDetail::kAggregate, /*window=*/16);
  EXPECT_EQ(series_bits(full), series_bits(aggregate));
}

TEST(ScopeDeterminism, UniformCohortPathIsByteIdentical) {
  // Aggregate retention + no monitor + stateless loss: the plain run takes
  // uniform representatives (one counted observe_class per cohort, folded
  // as repeated adds), the monitored run materializes every member. Same
  // bits either way.
  const auto materialized =
      fluid_series(true, fluid::TraceDetail::kAggregate, /*window=*/16);
  const auto uniform =
      fluid_series(false, fluid::TraceDetail::kAggregate, /*window=*/16);
  EXPECT_EQ(series_bits(materialized), series_bits(uniform));
}

TEST(ScopeTopology, FluidNetworkFillsPerLinkAndPerFlowChannels) {
  const auto proto = cc::make_protocol("aimd(1,0.5)");
  engine::ScenarioSpec scenario;
  scenario.steps = 200;
  engine::apply_parking_lot(scenario,
                            fluid::make_link_mbps(30.0, 42.0, 100.0), 3,
                            *proto);
  scenario.scope.enabled = true;
  const auto scope = engine::make_scope(scenario);
  ASSERT_NE(scope, nullptr);
  scenario.scope_sink = scope.get();
  (void)engine::backend_for(engine::BackendKind::kFluid).run(scenario);

  const ScopeSeries& series = scope->series();
  // Every bottleneck gets efficiency / loss / latency channels with at
  // least one closed window.
  for (int l = 0; l < 3; ++l) {
    for (const Axis axis : {Axis::kEfficiency, Axis::kLossAvoidance,
                            Axis::kLatencyAvoidance}) {
      const Channel* c = series.find(SubjectKind::kLink, l, axis);
      ASSERT_NE(c, nullptr) << "link " << l;
      ASSERT_FALSE(c->samples.empty()) << "link " << l;
    }
    const double util =
        series.last(SubjectKind::kLink, l, Axis::kEfficiency, -1.0);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_GE(series.last(SubjectKind::kLink, l, Axis::kLatencyAvoidance,
                          -1.0),
              0.0);
  }
  // One long flow + one short flow per bottleneck.
  const Channel* flow = series.find(SubjectKind::kClass, 0,
                                    Axis::kConvergence);
  ASSERT_NE(flow, nullptr);
  EXPECT_FALSE(flow->samples.empty());
  // Run fairness closed and is a valid ratio. (The fluid model's loss
  // signal is binary, so symmetric AIMD flows stay in lockstep and the
  // long-flow beat-down only materializes on the packet backend — exactly
  // the kind of cross-backend gap the metric lanes exist to localize.)
  const Channel* fair = series.find(SubjectKind::kRun, -1, Axis::kFairness);
  ASSERT_NE(fair, nullptr);
  ASSERT_FALSE(fair->samples.empty());
  EXPECT_GT(fair->samples.back().value, 0.0);
  EXPECT_LE(fair->samples.back().value, 1.0);
}

TEST(ScopeTopology, PacketBackendFillsRunAndFlowChannels) {
  const auto proto = cc::make_protocol("aimd(1,0.5)");
  engine::ScenarioSpec scenario;
  scenario.steps = 120;
  engine::apply_parking_lot(scenario,
                            fluid::make_link_mbps(10.0, 20.0, 50.0), 2,
                            *proto);
  scenario.scope.enabled = true;
  const auto scope = engine::make_scope(scenario);
  scenario.scope_sink = scope.get();
  (void)engine::backend_for(engine::BackendKind::kPacket).run(scenario);

  const ScopeSeries& series = scope->series();
  const Channel* eff = series.find(SubjectKind::kRun, -1, Axis::kEfficiency);
  ASSERT_NE(eff, nullptr);
  ASSERT_FALSE(eff->samples.empty());
  const Channel* flow = series.find(SubjectKind::kClass, 0,
                                    Axis::kLossAvoidance);
  ASSERT_NE(flow, nullptr);
  EXPECT_FALSE(flow->samples.empty());
  // The packet monitor has no per-link view: link channels never close.
  EXPECT_EQ(series.find(SubjectKind::kLink, 0, Axis::kEfficiency), nullptr);
}

TEST(ScopeRecorder, ClosedWindowsEmitMetricEventsPerLane) {
  recorder::RecordOptions ropts;
  ropts.enabled = true;
  recorder::Recorder sink(ropts);

  ScopeConfig config;
  config.enabled = true;
  config.window_steps = 8;
  config.warmup_steps = 0;
  config.capacity_mss = 100.0;
  config.min_rtt_seconds = 0.1;
  MetricScope scope(config);
  scope.set_recorder(&sink);
  scope.begin_run(2, 1);
  for (long step = 0; step < 16; ++step) {
    scope.step_begin(step, 60.0, 0.1, 0.0);
    scope.observe_class(0, 20.0, 0.0);
    scope.observe_class(1, 40.0, 0.0);
    scope.observe_link(0, 0.6, 0.0, 1.0);
    scope.step_end();
  }
  scope.finish();

  const recorder::Recording rec = sink.snapshot();
  long run_events = 0;
  long class_events = 0;
  long link_events = 0;
  for (const recorder::Event& e : rec.events) {
    ASSERT_EQ(e.cls, recorder::EventClass::kMetric);
    switch (e.subject_kind) {
      case recorder::Subject::kRun: ++run_events; break;
      case recorder::Subject::kCohort: ++class_events; break;
      case recorder::Subject::kLink: ++link_events; break;
      default: FAIL() << "unexpected subject kind";
    }
    // b carries the window's start step.
    EXPECT_TRUE(e.b == 0.0 || e.b == 8.0);
  }
  // 2 windows × (8 run axes, 2 classes × 2 axes, 1 link × 3 axes).
  EXPECT_EQ(run_events, 2 * 8);
  EXPECT_EQ(class_events, 2 * 4);
  EXPECT_EQ(link_events, 2 * 3);

  // The metric lane obeys the class mask like every other lane.
  recorder::RecordOptions masked;
  masked.enabled = true;
  masked.classes = recorder::parse_class_mask("window");
  recorder::Recorder masked_sink(masked);
  MetricScope masked_scope(config);
  masked_scope.set_recorder(&masked_sink);
  masked_scope.begin_run(1, 0);
  masked_scope.step_begin(0, 10.0, 0.1, 0.0);
  masked_scope.observe_class(0, 10.0, 0.0);
  masked_scope.step_end();
  masked_scope.finish();
  EXPECT_TRUE(masked_sink.snapshot().events.empty());
  EXPECT_NE(recorder::parse_class_mask("metric") &
                recorder::class_bit(recorder::EventClass::kMetric),
            0u);
}

TEST(ScopeRecording, V2RoundTripKeepsProvenanceAndV1StillParses) {
  recorder::Recording rec;
  rec.backend = "fluid";
  rec.git_sha = "0123456789abcdef0123456789abcdef01234567";
  rec.senders = 2;
  rec.steps = 100;
  recorder::Event e;
  e.step = 16;
  e.cls = recorder::EventClass::kMetric;
  e.code = recorder::EventCode::kFairness;
  e.subject_kind = recorder::Subject::kRun;
  e.subject = -1;
  e.a = 0.5;
  e.b = 0.0;
  rec.events.push_back(e);

  const std::string jsonl = recorder::recording_to_jsonl(rec);
  const recorder::Recording back = recorder::parse_recording_jsonl(jsonl);
  EXPECT_EQ(back.version, 2);
  EXPECT_EQ(back.git_sha, rec.git_sha);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].cls, recorder::EventClass::kMetric);
  EXPECT_EQ(back.events[0].code, recorder::EventCode::kFairness);

  // A v1 header (no git_sha) predates provenance and must still read.
  const std::string v1 =
      "{\"schema\":\"axiomcc-recording\",\"version\":1,\"backend\":"
      "\"fluid\",\"senders\":2,\"steps\":100,\"classes\":255,"
      "\"ring_depth\":256,\"sample_stride\":16,\"dropped\":0}\n";
  const recorder::Recording old = recorder::parse_recording_jsonl(v1);
  EXPECT_EQ(old.version, 1);
  EXPECT_TRUE(old.git_sha.empty());
}

recorder::Recording metric_recording(long steps,
                                     const std::vector<double>& fairness) {
  recorder::Recording rec;
  rec.steps = steps;
  rec.options.classes = recorder::kAllClasses;
  long step = 8;
  for (const double value : fairness) {
    recorder::Event e;
    e.step = step;
    e.cls = recorder::EventClass::kMetric;
    e.code = recorder::EventCode::kFairness;
    e.subject_kind = recorder::Subject::kRun;
    e.subject = -1;
    e.a = value;
    rec.events.push_back(e);
    step += 8;
  }
  return rec;
}

TEST(ScopeAlign, ZeroValuedMetricWindowsAreNotDivergence) {
  // A fairness collapse both sides agree on: 0-valued windows. The relative
  // gap's denominator is floored at 1, so 0 vs 0 (and 0 vs tiny) compare at
  // absolute scale instead of blowing up a near-zero division.
  const recorder::Recording left = metric_recording(64, {0.8, 0.0, 1e-9});
  const recorder::Recording right = metric_recording(64, {0.8, 0.0, 0.0});
  const recorder::AlignResult result =
      recorder::align_recordings(left, right, {});
  EXPECT_FALSE(result.diverged) << result.reason;
}

TEST(ScopeAlign, DivergentMetricWindowIsLocalized) {
  const recorder::Recording left =
      metric_recording(64, {0.8, 0.8, 0.8, 0.8});
  const recorder::Recording right =
      metric_recording(64, {0.8, 0.8, 0.1, 0.8});
  const recorder::AlignResult result =
      recorder::align_recordings(left, right, {});
  ASSERT_TRUE(result.diverged);
  EXPECT_EQ(result.trigger, recorder::EventClass::kMetric);
  // Third window: emitted at step 8 + 2*8.
  EXPECT_EQ(result.first_divergence_step, 24);
}

TEST(ScopeAlign, BeatDownReproducerDivergesInTheMetricView) {
  // The corpus beat-down scenario is a known fluid-vs-packet divergence;
  // with the scope attached, restricting the aligner to the kMetric lane
  // pinpoints the first metric window the two backends disagree on.
  const std::string path =
      std::string(AXIOMCC_CORPUS_DIR) + "/divergence-parking-lot-beatdown.scn";
  const engine::ScenarioSpec spec =
      fuzz::parse_scenario(recorder::read_text_file(path));

  fuzz::RunnerConfig config;
  config.record.enabled = true;
  config.record.ring_depth = 4096;
  config.scope.enabled = true;
  config.scope.window_steps = 32;
  const fuzz::RecordedScenario rs = fuzz::run_scenario_recorded(spec, config);
  EXPECT_EQ(rs.outcome.kind, fuzz::OutcomeKind::kDivergence);

  const auto has_metric = [](const recorder::Recording& r) {
    for (const recorder::Event& e : r.events) {
      if (e.cls == recorder::EventClass::kMetric) return true;
    }
    return false;
  };
  ASSERT_TRUE(has_metric(rs.fluid));
  ASSERT_TRUE(has_metric(rs.packet));

  recorder::AlignOptions options;
  options.classes = recorder::class_bit(recorder::EventClass::kMetric);
  const recorder::AlignResult result =
      recorder::align_recordings(rs.fluid, rs.packet, options);
  ASSERT_TRUE(result.diverged);
  EXPECT_EQ(result.trigger, recorder::EventClass::kMetric);
  EXPECT_GE(result.first_divergence_step, 0);
}

}  // namespace
}  // namespace axiomcc::scope
