// ledger.h — the append-only, provenance-stamped run ledger.
//
// Every bench run appends exactly one JSONL record per report to
// <out>/ledger.jsonl (bench/harness.h; default artifacts/ledger.jsonl). A
// record holds the report (phases, counters, wall-clock) plus provenance
// (git SHA, build flavor, backend, jobs, hardware jobs, an ISO-8601 UTC
// timestamp) and, when the run recorded telemetry, the registry's
// deterministic counters and full snapshot. The record is the benches' only
// artifact, and the ledger is what turns one-shot runs into a trajectory:
// the regression sentinel (sentinel.h) and the axiomcc-benchdiff CLI read
// it back to diff runs and flag drift.
//
// Format: one JSON object per line ("JSONL"), schema-versioned via the
// record's `schema_version` field. Readers are tolerant: malformed or
// truncated lines (a crashed writer, a partial flush) are skipped and
// counted, never fatal — an append-only log must survive its own history.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bench_json.h"

namespace axiomcc::ledger {

/// Version of the ledger line layout. Matches kBenchSchemaVersion so a
/// record and the BenchReport it is built from stay in lockstep.
inline constexpr int kLedgerSchemaVersion = kBenchSchemaVersion;

/// One bench run, as persisted on a ledger line.
struct LedgerRecord {
  int schema_version = kLedgerSchemaVersion;
  std::string timestamp_utc;  ///< ISO-8601 UTC ("2026-08-06T12:34:56Z")
  std::string bench;          ///< bench name ("table1", "micro", ...)
  std::string git_sha;        ///< full SHA, or "unknown" outside a checkout
  std::string build_flavor;   ///< e.g. "Release", "RelWithDebInfo+asan"
  std::string backend;        ///< "fluid", "packet", "both", or ""
  long jobs = 0;
  long hardware_jobs = 0;
  double total_seconds = 0.0;
  /// Wall-clock phases in insertion order (name -> seconds).
  std::vector<std::pair<std::string, double>> phases;
  /// Workload counters sorted by key (name -> value).
  std::vector<std::pair<std::string, double>> counters;
  /// Deterministic telemetry counters sorted by name. Populated only when
  /// the run recorded telemetry; byte-identical for the same workload at
  /// any --jobs level — the sentinel's strictest signal.
  std::vector<std::pair<std::string, std::int64_t>> deterministic_counters;
  /// The telemetry registry snapshot (telemetry::RegistrySnapshot::to_json,
  /// one compact JSON object) when the run recorded telemetry; empty
  /// otherwise, and then left off the line.
  std::string telemetry;
};

/// Renders `record` as one newline-free JSON line (the trailing '\n' is the
/// appender's job, so a record is exactly one ledger line).
[[nodiscard]] std::string to_jsonl(const LedgerRecord& record);

/// Parses one ledger line. nullopt when the line is malformed, truncated,
/// or missing required fields ("schema_version", "bench") — the tolerant
/// path read_ledger uses. Unknown fields are ignored (forward compat).
[[nodiscard]] std::optional<LedgerRecord> parse_record(std::string_view line);

/// A ledger read back from disk: the parseable records in file order plus
/// the count of lines that were skipped as malformed/truncated.
struct LedgerFile {
  std::vector<LedgerRecord> records;
  std::size_t skipped_lines = 0;
};

/// Reads every record from the JSONL file at `path`. Blank lines are
/// ignored; unparseable lines are skipped and counted. Throws
/// std::runtime_error only when the file itself cannot be opened.
[[nodiscard]] LedgerFile read_ledger(const std::string& path);

/// Appends `record` as one line to `path`, creating parent directories as
/// needed. Throws std::runtime_error when the file cannot be written.
void append_record(const std::string& path, const LedgerRecord& record);

/// Builds a record from a finished BenchReport: copies name/timestamp/
/// jobs/phases/counters/total and stamps provenance (git SHA + build
/// flavor). The telemetry fields stay empty; the bench harness fills them
/// when the run recorded telemetry.
[[nodiscard]] LedgerRecord record_from_bench(const BenchReport& bench,
                                             const std::string& backend);

}  // namespace axiomcc::ledger
