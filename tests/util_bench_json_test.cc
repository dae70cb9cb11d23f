// Tests for the BENCH_*.json writer and the shared JSON utilities: full
// string escaping, stable counter ordering, non-finite handling, and a
// parse-back round trip of the artifact.
#include "util/bench_json.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/json.h"

namespace axiomcc {
namespace {

// --- json.h primitives --------------------------------------------------------

TEST(JsonEscape, CoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
}

TEST(JsonEscape, RoundTripsThroughTheParser) {
  const std::string nasty = "quote\" back\\slash \n\r\t \x02 end";
  const JsonValue parsed = parse_json(json_quote(nasty));
  EXPECT_EQ(parsed.string, nasty);
}

TEST(JsonNumber, NonFiniteRendersAsNull) {
  std::string out;
  append_json_number(out, std::nan(""));
  EXPECT_EQ(out, "null");
  out.clear();
  append_json_number(out, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out, "null");
  out.clear();
  append_json_number(out, 2.5);
  EXPECT_EQ(out, "2.5");
}

// --- BenchReport --------------------------------------------------------------

TEST(BenchReport, ArtifactParsesAndRoundTripsValues) {
  BenchReport bench("round \"trip\"");
  bench.set_jobs(4);
  bench.add_phase("phase one", 1.5);
  bench.add_phase("phase\ntwo", 0.25);
  bench.add_counter("zeta", 26.0);
  bench.add_counter("alpha", 1.0);

  const JsonValue doc = parse_json(bench.to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("bench")->string, "round \"trip\"");
  EXPECT_EQ(doc.find("jobs")->number, 4.0);
  EXPECT_DOUBLE_EQ(doc.find("total_seconds")->number, 1.75);

  const JsonValue* phases = doc.find("phases");
  ASSERT_TRUE(phases != nullptr && phases->is_array());
  ASSERT_EQ(phases->array.size(), 2u);
  EXPECT_EQ(phases->array[0].find("name")->string, "phase one");
  EXPECT_EQ(phases->array[1].find("name")->string, "phase\ntwo");
  EXPECT_DOUBLE_EQ(phases->array[1].find("seconds")->number, 0.25);
}

TEST(BenchReport, CountersRenderSortedByKey) {
  BenchReport bench("sorting");
  bench.add_counter("zeta", 1.0);
  bench.add_counter("alpha", 2.0);
  bench.add_counter("mid", 3.0);

  const JsonValue doc = parse_json(bench.to_json());
  const JsonValue* counters = doc.find("counters");
  ASSERT_TRUE(counters != nullptr && counters->is_object());
  ASSERT_EQ(counters->object.size(), 3u);
  // The parser preserves textual order, so this asserts the render order.
  EXPECT_EQ(counters->object[0].first, "alpha");
  EXPECT_EQ(counters->object[1].first, "mid");
  EXPECT_EQ(counters->object[2].first, "zeta");
}

TEST(BenchReport, NonFiniteCounterBecomesNull) {
  BenchReport bench("nonfinite");
  bench.add_counter("bad", std::nan(""));
  const JsonValue doc = parse_json(bench.to_json());
  EXPECT_TRUE(doc.find("counters")->find("bad")->is_null());
}

TEST(BenchReport, SelfDescribesWithSchemaVersionAndTimestamp) {
  const JsonValue doc = parse_json(BenchReport("stamped").to_json());
  const JsonValue* version = doc.find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(static_cast<int>(version->number), kBenchSchemaVersion);

  const JsonValue* stamp = doc.find("timestamp_utc");
  ASSERT_NE(stamp, nullptr);
  // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SSZ".
  const std::string& ts = stamp->string;
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts.back(), 'Z');
}

TEST(BenchReport, TimestampOverrideForDeterministicArtifacts) {
  BenchReport bench("pinned");
  bench.set_timestamp_utc("2026-08-06T00:00:00Z");
  EXPECT_EQ(bench.timestamp_utc(), "2026-08-06T00:00:00Z");
  const JsonValue doc = parse_json(bench.to_json());
  EXPECT_EQ(doc.find("timestamp_utc")->string, "2026-08-06T00:00:00Z");
}

TEST(Iso8601Now, LooksLikeAnIsoStamp) {
  const std::string now = iso8601_utc_now();
  ASSERT_EQ(now.size(), 20u);
  EXPECT_EQ(now[10], 'T');
  EXPECT_EQ(now.back(), 'Z');
}

TEST(BenchReport, EmptyReportIsStillValidJson) {
  const JsonValue doc = parse_json(BenchReport("empty").to_json());
  EXPECT_TRUE(doc.find("phases")->is_array());
  EXPECT_TRUE(doc.find("counters")->is_object());
  EXPECT_TRUE(doc.find("phases")->array.empty());
  EXPECT_TRUE(doc.find("counters")->object.empty());
}

}  // namespace
}  // namespace axiomcc
