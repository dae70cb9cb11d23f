// Tests for the bench harness (bench/harness.h): flag checking, the typed
// common flags, and the one-record-per-report ledger artifact.
#include "bench/harness.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ledger/ledger.h"
#include "recorder/io.h"
#include "telemetry/telemetry.h"
#include "util/task_pool.h"

namespace axiomcc::bench {
namespace {

/// A Harness for bench "probe" over `args`, declaring `flags`.
Harness make(std::initializer_list<const char*> args,
             std::vector<Flag> flags = {}) {
  std::vector<const char*> argv{"bench_probe"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Harness(static_cast<int>(argv.size()), argv.data(), "probe",
                 std::move(flags));
}

/// A fresh, empty directory for one test's --out.
std::string fresh_dir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/bench_harness_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<ledger::LedgerRecord> records_in(const std::string& dir) {
  const ledger::LedgerFile file = ledger::read_ledger(dir + "/ledger.jsonl");
  EXPECT_EQ(file.skipped_lines, 0u);
  return file.records;
}

telemetry::Counter& det_counter() {
  return telemetry::Registry::global().counter("test.bench_harness.det");
}

TEST(BenchHarness, AppendsOneRecordPerReport) {
  const std::string dir = fresh_dir("one_per_report");
  const std::string out = "--out=" + dir;
  {
    Harness h = make({out.c_str(), "--jobs=3"}, {Flag::jobs()});
    h.report().add_counter("cells", 4.0);
    h.report("probe_extra").add_phase("run", 0.5);
    h.finish("packet");
  }
  const auto records = records_in(dir);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].bench, "probe");
  EXPECT_EQ(records[0].backend, "packet");
  EXPECT_EQ(records[0].jobs, 3);
  ASSERT_EQ(records[0].counters.size(), 1u);
  EXPECT_EQ(records[0].counters[0].first, "cells");
  EXPECT_EQ(records[1].bench, "probe_extra");
  EXPECT_DOUBLE_EQ(records[1].total_seconds, 0.5);

  // A second run appends; the ledger accumulates.
  {
    Harness h = make({out.c_str(), "--jobs=3"}, {Flag::jobs()});
    (void)h.report();
    h.finish("packet");
  }
  EXPECT_EQ(records_in(dir).size(), 3u);
}

TEST(BenchHarness, ReportJobCountFollowsJobsOrHardware) {
  const std::string dir = fresh_dir("job_count");
  const std::string out = "--out=" + dir;
  Harness with_jobs = make({out.c_str(), "--jobs=2"}, {Flag::jobs()});
  EXPECT_EQ(with_jobs.report().jobs(), 2);
  Harness without = make({out.c_str()});
  EXPECT_EQ(without.report().jobs(), hardware_jobs());
}

TEST(BenchHarness, WritesNoBenchArtifact) {
  const std::string dir = fresh_dir("no_artifact");
  const std::string out = "--out=" + dir;
  {
    Harness h = make({out.c_str(), "--telemetry"});
    h.report().add_counter("cells", 1.0);
    h.finish("fluid");
  }
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  for (const std::string& f : files) {
    EXPECT_FALSE(f.starts_with("BENCH_")) << f;
    EXPECT_TRUE(f == "ledger.jsonl" || f == "trace_probe.json") << f;
  }
  EXPECT_EQ(records_in(dir).size(), 1u);
}

TEST(BenchHarness, TelemetryRecordCarriesDeterministicCountersAndTrace) {
  const std::string dir = fresh_dir("telemetry");
  const std::string out = "--out=" + dir;
  {
    Harness h = make({out.c_str(), "--telemetry"});
    EXPECT_TRUE(telemetry::enabled());
    det_counter().add(5);
    (void)h.report();
    h.finish("fluid");
    EXPECT_FALSE(telemetry::enabled());
  }
  const auto records = records_in(dir);
  ASSERT_EQ(records.size(), 1u);
  const ledger::LedgerRecord& record = records[0];
  bool found = false;
  for (const auto& [name, value] : record.deterministic_counters) {
    if (name == "test.bench_harness.det") {
      found = true;
      EXPECT_EQ(value, 5);  // the harness zeroed the registry first
    }
  }
  EXPECT_TRUE(found);
  // The counters are the record's only telemetry; the spans go to the
  // trace file.
  EXPECT_EQ(ledger::to_jsonl(record).find("\"telemetry\""),
            std::string::npos);
  EXPECT_NO_THROW((void)telemetry::parse_chrome_trace(
      recorder::read_text_file(dir + "/trace_probe.json")));
}

TEST(BenchHarness, DeterministicCountersGatedOnTelemetry) {
  // Without --telemetry every probe was skipped, so the counters would all
  // read 0 — the record carries none, even when the registry holds values.
  det_counter().add(7);
  const std::string dir = fresh_dir("gated");
  const std::string out = "--out=" + dir;
  {
    Harness h = make({out.c_str()});
    EXPECT_FALSE(telemetry::enabled());
    (void)h.report();
    h.finish("fluid");
  }
  {
    Harness h = make({out.c_str(), "--telemetry"});
    det_counter().add(7);
    (void)h.report();
    h.finish("fluid");
  }
  const auto records = records_in(dir);
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(records[0].deterministic_counters.empty());
  ASSERT_EQ(records.size(), 2u);
  bool found = false;
  for (const auto& [name, value] : records[1].deterministic_counters) {
    if (name == "test.bench_harness.det") {
      found = true;
      EXPECT_EQ(value, 7);
    }
  }
  EXPECT_TRUE(found);
}

TEST(BenchHarness, RejectsAFlagTheBenchDoesNotRead) {
  try {
    (void)make({"--job=1"}, {Flag::jobs()});
    FAIL() << "--job=1 should be rejected";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--job "), std::string::npos)
        << e.what();
  }
  // The benches no longer read --ledger: the record is always written.
  EXPECT_THROW((void)make({"--ledger"}), UsageError);
  // A common flag the bench does not list is just as unknown.
  EXPECT_THROW((void)make({"--backend=packet"}, {Flag::jobs()}), UsageError);
  EXPECT_THROW((void)make({"stray"}), UsageError);
  // --telemetry is a switch; the trace goes to --out.
  EXPECT_THROW((void)make({"--telemetry=dir"}), UsageError);
}

TEST(BenchHarness, RunExitsTwoBeforeTheBodyOnAnUnknownFlag) {
  std::vector<const char*> argv{"bench_probe", "--job=1"};
  bool ran = false;
  const int code = run(static_cast<int>(argv.size()), argv.data(), "probe",
                       {Flag::jobs()}, [&ran](Harness&) {
                         ran = true;
                         return 0;
                       });
  EXPECT_EQ(code, 2);
  EXPECT_FALSE(ran);

  // A malformed value is a usage error too...
  argv = {"bench_probe", "--steps=abc"};
  EXPECT_EQ(run(static_cast<int>(argv.size()), argv.data(), "probe",
                {{"steps", Flag::kInt, "1"}},
                [](Harness& h) {
                  return static_cast<int>(h.args().get_int("steps"));
                }),
            2);
  // ...and any other error escaping the body exits 1.
  argv = {"bench_probe", "--steps=3"};
  EXPECT_EQ(run(static_cast<int>(argv.size()), argv.data(), "probe",
                {{"steps", Flag::kInt, "1"}},
                [](Harness&) -> int { throw std::runtime_error("boom"); }),
            1);
}

TEST(BenchHarness, OutDirFlagAndDefault) {
  EXPECT_EQ(make({}).out_dir(), "artifacts");
  EXPECT_EQ(make({"--out=bench_out"}).out_dir(), "bench_out");
  EXPECT_EQ(make({"--out="}).out_dir(), "artifacts");
}

TEST(BenchHarness, BackendDefaultsToFluid) {
  EXPECT_EQ(make({}, {backend_flag()}).backend(), engine::BackendKind::kFluid);
}

TEST(BenchHarness, BackendFlagParsesToBackendKind) {
  EXPECT_EQ(make({"--backend=packet"}, {backend_flag()}).backend(),
            engine::BackendKind::kPacket);
  EXPECT_EQ(make({"--backend=fluid"}, {backend_flag()}).backend(),
            engine::BackendKind::kFluid);
}

TEST(BenchHarness, UnknownBackendThrows) {
  try {
    (void)make({"--backend=ns3"}, {backend_flag()});
    FAIL() << "--backend=ns3 should throw";
  } catch (const UsageError& e) {
    // The message must list the accepted values.
    EXPECT_NE(std::string(e.what()).find("fluid|packet"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ns3"), std::string::npos)
        << e.what();
  }
}

TEST(BenchHarness, RecordOffByDefault) {
  EXPECT_FALSE(make({}, {record_flag()}).record().has_value());
}

TEST(BenchHarness, RecordFlagVariants) {
  // Bare flag -> recordings land in --out.
  EXPECT_EQ(make({"--record"}, {record_flag()}).record()->dir, "artifacts");
  EXPECT_EQ(make({"--record", "--out=o"}, {record_flag()}).record()->dir, "o");
  // Explicit directory; no class list records every class.
  const auto request = make({"--record=/tmp/rec"}, {record_flag()}).record();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->dir, "/tmp/rec");
  EXPECT_EQ(request->classes, recorder::kAllClasses);
}

TEST(BenchHarness, RecordClassesSuffixParsesToClassMask) {
  const unsigned window_loss =
      recorder::class_bit(recorder::EventClass::kWindow) |
      recorder::class_bit(recorder::EventClass::kLoss);
  const auto request =
      make({"--record=/tmp/rec,classes=window+loss"}, {record_flag()}).record();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->dir, "/tmp/rec");
  EXPECT_EQ(request->classes, window_loss);
  // The list may itself be comma-separated: everything after ",classes="
  // belongs to the list, not the directory.
  const auto commas =
      make({"--record=/tmp/rec,classes=window,loss"}, {record_flag()}).record();
  ASSERT_TRUE(commas.has_value());
  EXPECT_EQ(commas->dir, "/tmp/rec");
  EXPECT_EQ(commas->classes, window_loss);
}

TEST(BenchHarness, RecordClassesWithoutDirUsesOutDir) {
  const auto request =
      make({"--record=,classes=loss", "--out=o"}, {record_flag()}).record();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->dir, "o");
  EXPECT_EQ(request->classes, recorder::class_bit(recorder::EventClass::kLoss));
}

TEST(BenchHarness, RecordEmptyOrUnknownClassListRejected) {
  // A dangling ",classes=" is a usage error, not "all classes".
  EXPECT_THROW((void)make({"--record=/tmp/rec,classes="}, {record_flag()}),
               UsageError);
  EXPECT_THROW((void)make({"--record=/tmp/rec,classes=bogus"}, {record_flag()}),
               UsageError);
}

/// bench::run's exit code, stdout and stderr over `args`, declaring
/// `flags`; the body prints a line.
struct RunResult {
  int code;
  std::string out;
  std::string err;
};
RunResult run_probe(std::vector<const char*> args, std::vector<Flag> flags) {
  args.insert(args.begin(), "bench_probe");
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code = run(static_cast<int>(args.size()), args.data(), "probe",
                       std::move(flags), [](Harness&) {
                         std::printf("ran\n");
                         return 0;
                       });
  std::string out = testing::internal::GetCapturedStdout();
  return {code, std::move(out), testing::internal::GetCapturedStderr()};
}

TEST(BenchHarness, BadBackendOrRecordIsAUsageErrorBeforeTheBody) {
  for (const char* arg :
       {"--backend=pakcet", "--record=,classes=bogus", "--record=d,classes="}) {
    const RunResult r = run_probe({arg}, {backend_flag(), record_flag()});
    EXPECT_EQ(r.code, 2) << arg;
    EXPECT_EQ(r.out, "") << arg;
    const std::string flag(arg, std::string(arg).find('='));
    EXPECT_TRUE(r.err.starts_with("error: ")) << r.err;
    EXPECT_NE(r.err.find(flag), std::string::npos) << r.err;
  }
  EXPECT_EQ(run_probe({"--backend=packet"}, {backend_flag()}).out, "ran\n");
}

}  // namespace
}  // namespace axiomcc::bench
