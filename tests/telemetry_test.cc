// Tests for the telemetry subsystem: exact sharded counters under
// concurrency, the sorted snapshot, the probe macros, span nesting and
// ring-drop accounting, and Chrome trace-event round-trips.
//
// The registry and tracer are process-wide singletons, so every test uses
// its own counter names and resets recorded values up front.
#include "telemetry/telemetry.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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
  Counter& counter = Registry::global().counter("test.concurrent");
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

// --- snapshot rendering -------------------------------------------------------

TEST(TelemetrySnapshot, ToJsonIsParseable) {
  Registry& reg = Registry::global();
  reg.counter("test.json.b").reset();
  reg.counter("test.json.a").reset();
  reg.counter("test.json.b").add(7);
  reg.counter("test.json.a").add(-2);

  const std::string json = reg.snapshot().to_json();
  const JsonValue doc = parse_json(json);
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("test.json.a"), nullptr);
  ASSERT_NE(doc.find("test.json.b"), nullptr);
  EXPECT_EQ(doc.find("test.json.a")->number, -2.0);
  EXPECT_EQ(doc.find("test.json.b")->number, 7.0);
  // A flat object in name order, so equal workloads compare byte for byte.
  EXPECT_NE(json.find("\"test.json.a\":-2,\"test.json.b\":7"),
            std::string::npos)
      << json;
}

TEST(TelemetryRegistry, ResetValuesKeepsRegistrations) {
  Registry& reg = Registry::global();
  Counter& counter = reg.counter("test.reset");
  counter.add(5);
  reg.reset_values();
  EXPECT_EQ(counter.value(), 0);
  // The same name still resolves to the same counter.
  EXPECT_EQ(&reg.counter("test.reset"), &counter);
}

// --- macros -------------------------------------------------------------------

TEST(TelemetryMacros, DisabledProbesRecordNothing) {
  const bool was = enabled();
  set_enabled(false);
  TELEMETRY_COUNT("test.macro.off", 1);
  set_enabled(was);
  // The counter was never registered (the handle resolves lazily), so the
  // snapshot must not contain it.
  const std::string json = Registry::global().snapshot().to_json();
  EXPECT_EQ(json.find("test.macro.off"), std::string::npos);
}

TEST(TelemetryMacros, EnabledProbesCount) {
  EnabledScope scope;
  for (int i = 0; i < 3; ++i) TELEMETRY_COUNT("test.macro.on", 2);
  EXPECT_EQ(Registry::global().counter("test.macro.on").value(), 6);
}

TEST(TelemetryMacros, SpanLabelIsBuiltOnlyWhenEnabled) {
  Tracer::global().reset();
  int built = 0;
  const auto label = [&built] {
    ++built;
    return std::string("labelled");
  };
  const bool was = enabled();
  set_enabled(false);
  { TELEMETRY_SPAN("test", label()); }
  EXPECT_EQ(built, 0);
  EXPECT_TRUE(Tracer::global().collect().empty());
  set_enabled(true);
  { TELEMETRY_SPAN("test", label()); }
  set_enabled(was);
  EXPECT_EQ(built, 1);
  const std::vector<SpanEvent> events = Tracer::global().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].name, "labelled");
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
