// Tests for the run ledger: JSONL round trips, tolerant reads of malformed,
// truncated and older-format lines, and provenance stamping.
#include "ledger/ledger.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ledger/provenance.h"
#include "ledger/sentinel.h"
#include "util/check.h"

namespace axiomcc::ledger {
namespace {

LedgerRecord sample_record() {
  LedgerRecord record;
  record.timestamp_utc = "2026-08-06T12:34:56Z";
  record.bench = "table1";
  record.git_sha = "0123456789abcdef0123456789abcdef01234567";
  record.build_flavor = "Release";
  record.backend = "fluid";
  record.jobs = 4;
  record.hardware_jobs = 8;
  record.total_seconds = 1.75;
  record.phases = {{"build", 1.5}, {"check", 0.25}};
  record.counters = {{"cells", 6.0}, {"cells_per_sec", 3.4285}};
  record.deterministic_counters = {{"fluid.ticks", 184200},
                                   {"exp.table1.rows", 6}};
  return record;
}

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(LedgerRecord, JsonlRoundTripsEveryField) {
  const LedgerRecord original = sample_record();
  const std::string line = to_jsonl(original);
  // One record is exactly one line.
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const auto parsed = parse_record(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema_version, kLedgerSchemaVersion);
  EXPECT_EQ(parsed->timestamp_utc, original.timestamp_utc);
  EXPECT_EQ(parsed->bench, original.bench);
  EXPECT_EQ(parsed->git_sha, original.git_sha);
  EXPECT_EQ(parsed->build_flavor, original.build_flavor);
  EXPECT_EQ(parsed->backend, original.backend);
  EXPECT_EQ(parsed->jobs, original.jobs);
  EXPECT_EQ(parsed->hardware_jobs, original.hardware_jobs);
  EXPECT_DOUBLE_EQ(parsed->total_seconds, original.total_seconds);
  ASSERT_EQ(parsed->phases.size(), 2u);
  EXPECT_EQ(parsed->phases[0].first, "build");
  EXPECT_DOUBLE_EQ(parsed->phases[0].second, 1.5);
  ASSERT_EQ(parsed->counters.size(), 2u);
  EXPECT_NEAR(parsed->counters[1].second, 3.4285, 1e-9);
  ASSERT_EQ(parsed->deterministic_counters.size(), 2u);
  EXPECT_EQ(parsed->deterministic_counters[0].first, "fluid.ticks");
  EXPECT_EQ(parsed->deterministic_counters[0].second, 184200);
}

TEST(LedgerRecord, OldTelemetrySnapshotLineStillReads) {
  // Ledgers written before the registry snapshot left the record carry a
  // "telemetry" object after deterministic_counters. The reader ignores it.
  const std::string old_line =
      "{\"schema_version\":" + std::to_string(kLedgerSchemaVersion) +
      ",\"timestamp_utc\":\"2026-08-06T12:34:56Z\",\"bench\":\"table1\","
      "\"git_sha\":\"0123456789abcdef0123456789abcdef01234567\","
      "\"build_flavor\":\"Release\",\"backend\":\"fluid\",\"jobs\":4,"
      "\"hardware_jobs\":8,\"total_seconds\":1.75,"
      "\"phases\":{\"build\":1.5,\"check\":0.25},"
      "\"counters\":{\"cells\":6,\"cells_per_sec\":3.4285},"
      "\"deterministic_counters\":{\"exp.table1.rows\":6,"
      "\"fluid.ticks\":184200},"
      "\"telemetry\":{\"counters\":{\"exp.table1.rows\":6,"
      "\"fluid.ticks\":184200},\"scheduling\":{\"counters\":"
      "{\"pool.steals\":3},\"gauges\":{\"pool.queue_depth\":0}},"
      "\"histograms\":{\"fluid.tick_us\":{\"count\":2,\"sum\":1,\"min\":0,"
      "\"max\":1,\"mean\":0.5,\"p50\":0.5,\"p90\":0.9,\"p99\":0.99}}}}";
  const auto old_record = parse_record(old_line);
  ASSERT_TRUE(old_record.has_value());
  const std::vector<std::pair<std::string, std::int64_t>> counters{
      {"exp.table1.rows", 6}, {"fluid.ticks", 184200}};
  EXPECT_EQ(old_record->deterministic_counters, counters);
  EXPECT_EQ(to_jsonl(*old_record).find("\"telemetry\""), std::string::npos);

  // Against a new-format record its counters compare as usual.
  LedgerRecord current = sample_record();
  current.deterministic_counters = counters;
  ASSERT_EQ(to_jsonl(current).find("\"telemetry\""), std::string::npos);
  const DiffReport same = diff_records(*old_record, current);
  EXPECT_FALSE(same.regression());
  std::size_t compared = 0;
  for (const MetricDelta& delta : same.deltas) {
    if (delta.kind != MetricDelta::Kind::kDeterministic) continue;
    ++compared;
    EXPECT_EQ(delta.verdict, Verdict::kIdentical) << delta.name;
  }
  EXPECT_EQ(compared, counters.size());
  current.deterministic_counters[1].second = 184201;
  const DiffReport drift = diff_records(*old_record, current);
  EXPECT_TRUE(drift.regression());
  ASSERT_EQ(drift.count(Verdict::kMismatch), 1u);
  for (const MetricDelta& delta : drift.deltas) {
    if (delta.verdict != Verdict::kMismatch) continue;
    EXPECT_EQ(delta.name, "det/fluid.ticks");
    EXPECT_EQ(delta.kind, MetricDelta::Kind::kDeterministic);
  }
}

TEST(LedgerRecord, ParseRejectsMalformedAndIncompleteLines) {
  EXPECT_FALSE(parse_record("not json at all").has_value());
  EXPECT_FALSE(parse_record("{\"bench\": \"x\"").has_value());  // truncated
  EXPECT_FALSE(parse_record("[1, 2, 3]").has_value());  // not an object
  // Required fields: schema_version and a non-empty bench.
  EXPECT_FALSE(parse_record("{\"bench\": \"x\"}").has_value());
  EXPECT_FALSE(parse_record("{\"schema_version\": 2}").has_value());
  EXPECT_FALSE(
      parse_record("{\"schema_version\": 2, \"bench\": \"\"}").has_value());
  // Minimal valid line.
  EXPECT_TRUE(
      parse_record("{\"schema_version\": 2, \"bench\": \"x\"}").has_value());
}

TEST(LedgerRecord, ParseIgnoresUnknownFields) {
  const auto parsed = parse_record(
      "{\"schema_version\": 3, \"bench\": \"x\", \"future_field\": [1]}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->schema_version, 3);
}

TEST(ReadLedger, SkipsMalformedAndTruncatedLinesButKeepsTheRest) {
  const std::string path = temp_path("tolerant_ledger.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << to_jsonl(sample_record()) << '\n';
    out << "\n";                         // blank: ignored, not counted
    out << "{garbage\n";                 // malformed: skipped
    out << to_jsonl(sample_record()) << '\n';
    // Truncated final line — a writer killed mid-append.
    const std::string full = to_jsonl(sample_record());
    out << full.substr(0, full.size() / 2);
  }
  const LedgerFile file = read_ledger(path);
  EXPECT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.skipped_lines, 2u);
}

TEST(ReadLedger, ThrowsOnlyWhenTheFileCannotBeOpened) {
  EXPECT_THROW((void)read_ledger(temp_path("does_not_exist.jsonl")),
               std::runtime_error);
}

TEST(AppendRecord, CreatesParentDirectoriesAndAccumulates) {
  const std::string dir = temp_path("nested/deeper");
  const std::string path = dir + "/ledger.jsonl";
  std::filesystem::remove_all(temp_path("nested"));

  append_record(path, sample_record());
  append_record(path, sample_record());
  const LedgerFile file = read_ledger(path);
  EXPECT_EQ(file.records.size(), 2u);
  EXPECT_EQ(file.skipped_lines, 0u);
}

TEST(RecordFromBench, CopiesReportAndStampsProvenance) {
  setenv("AXIOMCC_GIT_SHA", "feedface00feedface00feedface00feedface00", 1);
  BenchReport bench("micro");
  bench.set_jobs(3);
  bench.set_timestamp_utc("2026-08-06T00:00:00Z");
  bench.add_phase("warm", 0.5);
  bench.add_phase("run", 1.0);
  bench.add_counter("zeta", 2.0);
  bench.add_counter("alpha", 1.0);

  const LedgerRecord record = record_from_bench(bench, "packet");
  unsetenv("AXIOMCC_GIT_SHA");

  EXPECT_EQ(record.bench, "micro");
  EXPECT_EQ(record.timestamp_utc, "2026-08-06T00:00:00Z");
  EXPECT_EQ(record.git_sha, "feedface00feedface00feedface00feedface00");
  EXPECT_NE(record.build_flavor, "");
  EXPECT_EQ(record.backend, "packet");
  EXPECT_EQ(record.jobs, 3);
  EXPECT_DOUBLE_EQ(record.total_seconds, 1.5);
  ASSERT_EQ(record.phases.size(), 2u);
  EXPECT_EQ(record.phases[0].first, "warm");
  // Counters are sorted by key in the record.
  ASSERT_EQ(record.counters.size(), 2u);
  EXPECT_EQ(record.counters[0].first, "alpha");
  // The harness, not the report, carries telemetry into a record.
  EXPECT_TRUE(record.deterministic_counters.empty());
}

TEST(Provenance, EnvironmentOverrideWinsAndIsValidated) {
  setenv("AXIOMCC_GIT_SHA", "abc123def456", 1);
  EXPECT_EQ(current_provenance().git_sha, "abc123def456");
  unsetenv("AXIOMCC_GIT_SHA");

  EXPECT_TRUE(looks_like_git_sha("0123456789abcdef0123456789abcdef01234567"));
  EXPECT_TRUE(looks_like_git_sha("abc1234"));
  EXPECT_FALSE(looks_like_git_sha("short"));
  EXPECT_FALSE(looks_like_git_sha("not-hex-characters-here"));
  EXPECT_FALSE(looks_like_git_sha(""));
}

TEST(BenchReportStamp, CarriesSchemaVersionAndParseableTimestamp) {
  const auto record =
      parse_record(to_jsonl(record_from_bench(BenchReport("stamp"), "")));
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->schema_version, kBenchSchemaVersion);
  // ISO-8601 UTC: YYYY-MM-DDTHH:MM:SSZ.
  const std::string& ts = record->timestamp_utc;
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[19], 'Z');
}

}  // namespace
}  // namespace axiomcc::ledger
