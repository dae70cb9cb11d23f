// Tests for the bench harness (bench/harness.h): flag checking, the typed
// common flags, and the one-record-per-report ledger artifact.
#include "bench/harness.h"

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ledger/ledger.h"
#include "telemetry/telemetry.h"
#include "util/json.h"
#include "util/task_pool.h"

namespace axiomcc::bench {
namespace {

/// A Harness for bench "probe" over `args`, reading `flags`.
Harness make(std::initializer_list<const char*> args,
             std::initializer_list<std::string_view> flags = {}) {
  std::vector<const char*> argv{"bench_probe"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Harness(static_cast<int>(argv.size()), argv.data(), "probe", flags);
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
  return telemetry::Registry::global().counter(
      "test.bench_harness.det", telemetry::Stability::kDeterministic);
}

TEST(BenchHarness, AppendsOneRecordPerReport) {
  const std::string dir = fresh_dir("one_per_report");
  const std::string out = "--out=" + dir;
  {
    Harness h = make({out.c_str(), "--jobs=3"}, {"jobs"});
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
    Harness h = make({out.c_str(), "--jobs=3"}, {"jobs"});
    (void)h.report();
    h.finish("packet");
  }
  EXPECT_EQ(records_in(dir).size(), 3u);
}

TEST(BenchHarness, ReportJobCountFollowsJobsOrHardware) {
  const std::string dir = fresh_dir("job_count");
  const std::string out = "--out=" + dir;
  Harness with_jobs = make({out.c_str(), "--jobs=2"}, {"jobs"});
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

TEST(BenchHarness, TelemetryRecordCarriesDeterministicCountersAndSnapshot) {
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
  // The snapshot the BENCH_*.json artifact used to embed, whole.
  ASSERT_FALSE(record.telemetry.empty());
  const JsonValue snapshot = parse_json(record.telemetry);
  ASSERT_NE(snapshot.find("counters"), nullptr);
  EXPECT_EQ(snapshot.find("counters")->find("test.bench_harness.det")->number,
            5.0);
  EXPECT_NE(snapshot.find("histograms"), nullptr);
  EXPECT_NE(snapshot.find("scheduling"), nullptr);
  EXPECT_TRUE(std::filesystem::exists(dir + "/trace_probe.json"));
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
  EXPECT_TRUE(records[0].telemetry.empty());
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
    (void)make({"--job=1"}, {"jobs"});
    FAIL() << "--job=1 should be rejected";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--job "), std::string::npos)
        << e.what();
  }
  // The benches no longer read --ledger: the record is always written.
  EXPECT_THROW((void)make({"--ledger"}), UsageError);
  // A common flag the bench does not list is just as unknown.
  EXPECT_THROW((void)make({"--backend=packet"}, {"jobs"}), UsageError);
  EXPECT_THROW((void)make({"stray"}), UsageError);
  // --telemetry is a switch; the trace goes to --out.
  EXPECT_THROW((void)make({"--telemetry=dir"}), UsageError);
  // A trailing '*' reads a whole prefix (bench_micro's --benchmark_*).
  EXPECT_NO_THROW((void)make({"--benchmark_filter=BM_x"}, {"benchmark_*"}));
  EXPECT_THROW((void)make({"--benchmarks"}, {"benchmark_*"}), UsageError);
}

TEST(BenchHarness, RunExitsTwoBeforeTheBodyOnAnUnknownFlag) {
  std::vector<const char*> argv{"bench_probe", "--job=1"};
  bool ran = false;
  const int code = run(static_cast<int>(argv.size()), argv.data(), "probe",
                       {"jobs"}, [&ran](Harness&) {
                         ran = true;
                         return 0;
                       });
  EXPECT_EQ(code, 2);
  EXPECT_FALSE(ran);

  // A malformed value is a usage error too...
  argv = {"bench_probe", "--steps=abc"};
  EXPECT_EQ(run(static_cast<int>(argv.size()), argv.data(), "probe",
                {"steps"},
                [](Harness& h) {
                  return static_cast<int>(h.args().get_int("steps", 1));
                }),
            2);
  // ...and any other error escaping the body exits 1.
  argv = {"bench_probe", "--steps=3"};
  EXPECT_EQ(run(static_cast<int>(argv.size()), argv.data(), "probe",
                {"steps"},
                [](Harness&) -> int { throw std::runtime_error("boom"); }),
            1);
}

TEST(BenchHarness, OutDirFlagAndDefault) {
  EXPECT_EQ(make({}).out_dir(), "artifacts");
  EXPECT_EQ(make({"--out=bench_out"}).out_dir(), "bench_out");
  EXPECT_EQ(make({"--out="}).out_dir(), "artifacts");
}

TEST(BenchHarness, BackendDefaultsToFluid) {
  EXPECT_EQ(make({}, {"backend"}).backend(), engine::BackendKind::kFluid);
}

TEST(BenchHarness, BackendFlagParsesToBackendKind) {
  EXPECT_EQ(make({"--backend=packet"}, {"backend"}).backend(),
            engine::BackendKind::kPacket);
  EXPECT_EQ(make({"--backend=fluid"}, {"backend"}).backend(),
            engine::BackendKind::kFluid);
}

TEST(BenchHarness, UnknownBackendThrows) {
  try {
    (void)make({"--backend=ns3"}, {"backend"}).backend();
    FAIL() << "--backend=ns3 should throw";
  } catch (const std::invalid_argument& e) {
    // The message must list the accepted values.
    EXPECT_NE(std::string(e.what()).find("fluid|packet"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ns3"), std::string::npos)
        << e.what();
  }
}

TEST(BenchHarness, RecordOffByDefault) {
  EXPECT_FALSE(make({}, {"record"}).record().has_value());
}

TEST(BenchHarness, RecordFlagVariants) {
  // Bare flag -> recordings land in --out.
  EXPECT_EQ(make({"--record"}, {"record"}).record()->dir, "artifacts");
  EXPECT_EQ(make({"--record", "--out=o"}, {"record"}).record()->dir, "o");
  // Explicit directory; no class list records every class.
  const auto request = make({"--record=/tmp/rec"}, {"record"}).record();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->dir, "/tmp/rec");
  EXPECT_EQ(request->classes, recorder::kAllClasses);
}

TEST(BenchHarness, RecordClassesSuffixParsesToClassMask) {
  const unsigned window_loss =
      recorder::class_bit(recorder::EventClass::kWindow) |
      recorder::class_bit(recorder::EventClass::kLoss);
  const auto request =
      make({"--record=/tmp/rec,classes=window+loss"}, {"record"}).record();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->dir, "/tmp/rec");
  EXPECT_EQ(request->classes, window_loss);
  // The list may itself be comma-separated: everything after ",classes="
  // belongs to the list, not the directory.
  const auto commas =
      make({"--record=/tmp/rec,classes=window,loss"}, {"record"}).record();
  ASSERT_TRUE(commas.has_value());
  EXPECT_EQ(commas->dir, "/tmp/rec");
  EXPECT_EQ(commas->classes, window_loss);
}

TEST(BenchHarness, RecordClassesWithoutDirUsesOutDir) {
  const auto request =
      make({"--record=,classes=loss", "--out=o"}, {"record"}).record();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->dir, "o");
  EXPECT_EQ(request->classes, recorder::class_bit(recorder::EventClass::kLoss));
}

TEST(BenchHarness, RecordEmptyOrUnknownClassListRejected) {
  // A dangling ",classes=" is a usage error, not "all classes".
  EXPECT_THROW((void)make({"--record=/tmp/rec,classes="}, {"record"}).record(),
               std::invalid_argument);
  EXPECT_THROW(
      (void)make({"--record=/tmp/rec,classes=bogus"}, {"record"}).record(),
      std::invalid_argument);
}

}  // namespace
}  // namespace axiomcc::bench
