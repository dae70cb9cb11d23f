// Chrome-trace export round-trip and snapshot identity for the fluid tick
// loop's telemetry. Three contracts:
//
//  * spans recorded while a materialized kernel cohort fans out over the
//    task pool survive a write_chrome_trace -> parse_chrome_trace round
//    trip exactly (category, name, thread, timing — the inspect/triage
//    workflow reads traces back from disk);
//  * the counter snapshot of a run is byte-identical at --jobs=1 and
//    --jobs=4 — the telemetry face of the determinism contract the
//    trace-level tests already pin;
//  * a lone constant-loss probe (the robustness search's run) counts
//    every tick and injected-loss sample, and its trace is byte-identical
//    with telemetry on and off.
//
// The name contains "telemetry" so the TSan CI preset picks it up: the
// jobs=4 runs exercise the tracer's per-thread rings under real fan-out.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "fluid/loss_model.h"
#include "fluid/sim.h"
#include "telemetry/telemetry.h"

namespace axiomcc::telemetry {
namespace {

class EnabledScope {
 public:
  EnabledScope() : was_(enabled()) { set_enabled(true); }
  ~EnabledScope() { set_enabled(was_); }

 private:
  bool was_;
};

/// Runs a materialized kernel cohort large enough to shard (two 16384-slot
/// chunks and more) at the given fan-out width. The pass-through step
/// monitor keeps every member stored; the aggregate trace keeps memory
/// small.
fluid::Trace run_materialized_sim(long jobs) {
  fluid::SimOptions options;
  options.steps = 200;
  options.jobs = jobs;
  options.trace_detail = fluid::TraceDetail::kAggregate;
  fluid::FluidSimulation sim(fluid::make_link_mbps(30.0, 42.0, 100.0),
                             options);
  const auto proto = cc::make_protocol("aimd(1,0.5)");
  sim.add_senders(*proto, 40000, 10.0);
  sim.set_step_monitor(
      [](long, std::span<const double>, double, double) { return true; });
  return sim.run();
}

std::set<std::pair<std::string, std::string>> span_names(
    const std::vector<SpanEvent>& events) {
  std::set<std::pair<std::string, std::string>> names;
  for (const SpanEvent& event : events) {
    names.emplace(event.category, event.name);
  }
  return names;
}

TEST(TelemetryBatchTrace, ChromeTraceRoundTripsBatchTickLoopSpans) {
  EnabledScope scope;
  Tracer::global().reset();

  const fluid::Trace trace = run_materialized_sim(4);
  ASSERT_EQ(trace.num_steps(), 200);

  const std::vector<SpanEvent> recorded = Tracer::global().collect();
  const auto names = span_names(recorded);
  EXPECT_TRUE(names.contains({"fluid", "sim.run"}));
  EXPECT_TRUE(names.contains({"fluid", "sim.tick_loop"}));

  const std::string path =
      testing::TempDir() + "/telemetry_batch_trace_roundtrip.json";
  ASSERT_TRUE(write_chrome_trace(path, recorded));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();

  const std::vector<SpanEvent> parsed = parse_chrome_trace(buffer.str());
  ASSERT_EQ(parsed.size(), recorded.size());
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(parsed[i].category, recorded[i].category) << i;
    EXPECT_EQ(parsed[i].name, recorded[i].name) << i;
    EXPECT_EQ(parsed[i].thread_id, recorded[i].thread_id) << i;
    EXPECT_EQ(parsed[i].start_us, recorded[i].start_us) << i;
    EXPECT_EQ(parsed[i].duration_us, recorded[i].duration_us) << i;
  }
  std::remove(path.c_str());
}

TEST(TelemetryBatchTrace, TickLoopSpanSetIdenticalAcrossJobs) {
  EnabledScope scope;

  Tracer::global().reset();
  (void)run_materialized_sim(1);
  const auto serial = span_names(Tracer::global().collect());

  Tracer::global().reset();
  (void)run_materialized_sim(4);
  const auto parallel = span_names(Tracer::global().collect());

  // Span timing is scheduling-dependent; the set of (category, name) pairs
  // the run emits is not allowed to be.
  EXPECT_EQ(serial, parallel);
}

TEST(TelemetryBatchTrace, DeterministicSnapshotIdenticalAcrossJobs) {
  EnabledScope scope;

  Registry::global().reset_values();
  (void)run_materialized_sim(1);
  const std::string serial = Registry::global().snapshot().to_json();

  Registry::global().reset_values();
  (void)run_materialized_sim(4);
  const std::string parallel = Registry::global().snapshot().to_json();

  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("fluid.ticks"), std::string::npos) << serial;
}

/// A lone sender on core::evaluate_protocol's fluid infinite link under
/// ConstantLoss(0.01): one robustness probe.
fluid::Trace run_probe(long steps) {
  fluid::SimOptions options;
  options.steps = steps;
  fluid::LinkParams link = fluid::make_link_mbps(30.0, 42.0, 1e15);
  link.bandwidth = Bandwidth::from_mss_per_sec(1e15);
  fluid::FluidSimulation sim(link, options);
  sim.add_sender(*cc::make_protocol("aimd(1,0.5)"), 1.0);
  sim.set_loss_injector(std::make_unique<fluid::ConstantLoss>(0.01));
  return sim.run();
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(TelemetryBatchTrace, LoneProbeCountsEveryTickAndKeepsItsTrace) {
  constexpr long kSteps = 2500;
  const fluid::Trace quiet = run_probe(kSteps);

  const fluid::Trace traced = [] {
    EnabledScope scope;
    Registry::global().reset_values();
    return run_probe(kSteps);
  }();
  Registry& registry = Registry::global();
  EXPECT_EQ(registry.counter("fluid.ticks").value(), kSteps);
  EXPECT_EQ(registry.counter("fluid.injected_loss_samples").value(), kSteps);

  EXPECT_TRUE(same_bits(quiet.windows(0), traced.windows(0)));
  EXPECT_TRUE(same_bits(quiet.observed_loss(0), traced.observed_loss(0)));
  EXPECT_TRUE(same_bits(quiet.total_window(), traced.total_window()));
  EXPECT_TRUE(same_bits(quiet.rtt_seconds(), traced.rtt_seconds()));
  EXPECT_TRUE(same_bits(quiet.congestion_loss(), traced.congestion_loss()));
}

}  // namespace
}  // namespace axiomcc::telemetry
