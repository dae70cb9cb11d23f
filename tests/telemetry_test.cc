// Tests for the telemetry subsystem: exact sharded counters under
// concurrency, upper-inclusive histogram bucketing, quantile summaries,
// span nesting and ring-drop accounting, Chrome trace-event round-trips,
// and the deterministic-vs-scheduling snapshot split.
//
// The registry and tracer are process-wide singletons, so every test uses
// its own metric names and resets recorded values up front.
#include "telemetry/telemetry.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/json.h"

namespace axiomcc::telemetry {
namespace {

/// Turns telemetry on for one test body and restores the previous state.
class EnabledScope {
 public:
  EnabledScope() : was_(enabled()) { set_enabled(true); }
  ~EnabledScope() { set_enabled(was_); }

 private:
  bool was_;
};

// --- sharded counters ---------------------------------------------------------

TEST(TelemetryCounter, ExactUnderConcurrentWriters) {
  Counter& counter =
      Registry::global().counter("test.concurrent", Stability::kDeterministic);
  counter.reset();

  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  // Sharding spreads the adds over cells; the sum must still be exact.
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(kThreads) *
                                 kAddsPerThread);
}

TEST(TelemetryCounter, StabilityMustAgreeOnReRegistration) {
  (void)Registry::global().counter("test.stability",
                                   Stability::kDeterministic);
  EXPECT_THROW((void)Registry::global().counter(
                   "test.stability", Stability::kScheduleDependent),
               ContractViolation);
}

TEST(TelemetryGauge, SignedDeltasSumAcrossThreads) {
  Gauge& gauge = Registry::global().gauge("test.gauge");
  gauge.reset();
  std::thread up([&gauge] {
    for (int i = 0; i < 1000; ++i) gauge.add(2);
  });
  std::thread down([&gauge] {
    for (int i = 0; i < 1000; ++i) gauge.add(-1);
  });
  up.join();
  down.join();
  EXPECT_EQ(gauge.value(), 1000);
}

// --- histograms ---------------------------------------------------------------

TEST(TelemetryHistogram, BucketEdgesAreUpperInclusive) {
  Histogram hist({1.0, 2.0, 4.0});
  hist.record(0.5);  // bucket 0 (v <= 1)
  hist.record(1.0);  // bucket 0 (edge is inclusive)
  hist.record(1.5);  // bucket 1
  hist.record(2.0);  // bucket 1
  hist.record(4.0);  // bucket 2
  hist.record(9.0);  // overflow bucket

  const Histogram::Data data = hist.data();
  ASSERT_EQ(data.bucket_counts.size(), 4u);
  EXPECT_EQ(data.bucket_counts[0], 2u);
  EXPECT_EQ(data.bucket_counts[1], 2u);
  EXPECT_EQ(data.bucket_counts[2], 1u);
  EXPECT_EQ(data.bucket_counts[3], 1u);
  EXPECT_EQ(data.count, 6u);
  EXPECT_DOUBLE_EQ(data.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(data.min, 0.5);
  EXPECT_DOUBLE_EQ(data.max, 9.0);
}

TEST(TelemetryHistogram, IgnoresNonFiniteValues) {
  Histogram hist({1.0});
  hist.record(std::nan(""));
  hist.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.data().count, 0u);
}

TEST(TelemetryHistogram, QuantilesClampToObservedRange) {
  Histogram hist({10.0, 100.0, 1000.0});
  for (int i = 1; i <= 100; ++i) hist.record(static_cast<double>(i));

  HistogramSnapshot snap;
  snap.name = "q";
  snap.data = hist.data();
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.quantile(100.0), 100.0);
  // The p50 falls in the (10, 100] bucket; interpolation stays inside it.
  const double p50 = snap.quantile(50.0);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_NEAR(p50, 50.0, 10.0);
}

TEST(TelemetryHistogram, ConcurrentRecordsKeepExactCount) {
  Histogram& hist = Registry::global().latency_histogram("test.hist");
  hist.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Data data = hist.data();
  EXPECT_EQ(data.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(data.min, 0.0);
  EXPECT_DOUBLE_EQ(data.max, kThreads * kPerThread - 1.0);
}

// --- snapshot rendering -------------------------------------------------------

TEST(TelemetrySnapshot, DeterministicJsonExcludesScheduleDependentCounters) {
  Registry& reg = Registry::global();
  Counter& det = reg.counter("test.snap.det", Stability::kDeterministic);
  Counter& sched = reg.counter("test.snap.sched",
                               Stability::kScheduleDependent);
  det.reset();
  sched.reset();
  det.add(7);
  sched.add(3);

  const std::string json = reg.snapshot().deterministic_json();
  EXPECT_NE(json.find("\"test.snap.det\":7"), std::string::npos) << json;
  EXPECT_EQ(json.find("test.snap.sched"), std::string::npos);
}

TEST(TelemetrySnapshot, ToJsonIsParseable) {
  Registry& reg = Registry::global();
  reg.counter("test.json.counter", Stability::kDeterministic).add(1);
  reg.gauge("test.json.gauge").add(-2);
  reg.latency_histogram("test.json.hist").record(5.0);

  const JsonValue doc = parse_json(reg.snapshot().to_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("counters"), nullptr);
  ASSERT_NE(doc.find("scheduling"), nullptr);
  const JsonValue* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* hist = hists->find("test.json.hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->find("count"), nullptr);
  EXPECT_EQ(hist->find("count")->number, 1.0);
}

TEST(TelemetryRegistry, ResetValuesKeepsRegistrations) {
  Registry& reg = Registry::global();
  Counter& counter = reg.counter("test.reset", Stability::kDeterministic);
  counter.add(5);
  reg.reset_values();
  EXPECT_EQ(counter.value(), 0);
  // Same name, same stability: still resolves to the same counter.
  EXPECT_EQ(&reg.counter("test.reset", Stability::kDeterministic), &counter);
}

// --- macros -------------------------------------------------------------------

TEST(TelemetryMacros, DisabledProbesRecordNothing) {
  const bool was = enabled();
  set_enabled(false);
  TELEMETRY_COUNT("test.macro.off", 1);
  set_enabled(was);
  // The counter was never registered (the handle resolves lazily), so the
  // snapshot must not contain it.
  const std::string json = Registry::global().snapshot().deterministic_json();
  EXPECT_EQ(json.find("test.macro.off"), std::string::npos);
}

TEST(TelemetryMacros, EnabledProbesCount) {
  EnabledScope scope;
  for (int i = 0; i < 3; ++i) TELEMETRY_COUNT("test.macro.on", 2);
  EXPECT_EQ(Registry::global()
                .counter("test.macro.on", Stability::kDeterministic)
                .value(),
            6);
}

// --- spans --------------------------------------------------------------------

TEST(TelemetrySpans, NestedScopesRecordContainedIntervals) {
  EnabledScope scope;
  Tracer::global().reset();
  {
    ScopedSpan outer("test", "outer");
    { ScopedSpan inner("test", "inner"); }
  }
  const std::vector<SpanEvent> events = Tracer::global().collect();
  ASSERT_EQ(events.size(), 2u);
  // Both spans can open in the same microsecond, so look them up by name
  // instead of relying on the start-time sort to break the tie.
  const SpanEvent& outer = events[0].name == "outer" ? events[0] : events[1];
  const SpanEvent& inner = events[0].name == "outer" ? events[1] : events[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);
}

TEST(TelemetrySpans, ExplicitBeginEndAttributesToEndingThread) {
  EnabledScope scope;
  Tracer::global().reset();
  const SpanToken token = begin_span();
  end_span(token, "test", "async");
  const std::vector<SpanEvent> events = Tracer::global().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].name, "async");
  EXPECT_GE(events[0].duration_us, 0);
}

TEST(TelemetrySpans, RingOverflowCountsDrops) {
  EnabledScope scope;
  Tracer& tracer = Tracer::global();
  tracer.reset();
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < Tracer::kRingCapacity + extra; ++i) {
    tracer.record("test", "spin", 0, 1);
  }
  EXPECT_EQ(tracer.collect().size(), Tracer::kRingCapacity);
  EXPECT_GE(tracer.dropped(), extra);
}

// --- Chrome trace-event export ------------------------------------------------

TEST(TelemetryTrace, ChromeJsonRoundTrips) {
  std::vector<SpanEvent> events;
  SpanEvent e;
  e.category = "cat \"quoted\"";
  e.name = "name\\with\nescapes";
  e.thread_id = 3;
  e.start_us = 17;
  e.duration_us = 42;
  events.push_back(e);

  const std::string path = ::testing::TempDir() + "trace_roundtrip.json";
  ASSERT_TRUE(write_chrome_trace(path, events));

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // The file must be a valid JSON document with the trace-event shape.
  const JsonValue doc = parse_json(text);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->is_array());

  const std::vector<SpanEvent> parsed = parse_chrome_trace(text);
  ASSERT_EQ(parsed.size(), events.size());
  EXPECT_EQ(parsed[0].category, e.category);
  EXPECT_EQ(parsed[0].name, e.name);
  EXPECT_EQ(parsed[0].thread_id, e.thread_id);
  EXPECT_EQ(parsed[0].start_us, e.start_us);
  EXPECT_EQ(parsed[0].duration_us, e.duration_us);
  std::remove(path.c_str());
}

TEST(TelemetryTrace, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_chrome_trace("{not json"), std::runtime_error);
}

}  // namespace
}  // namespace axiomcc::telemetry
