// bench_json.h — a bench run's report: phases, counters, job count.
//
// A BenchReport records a run's wall-clock per-phase breakdown, the job
// count it ran with and its workload counters (cells, cells/sec). The bench
// binaries turn each report into one run-ledger record (ledger/ledger.h);
// perfbench also writes it as a BENCH_perfbench_<workload>.json artifact
// with write().
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace axiomcc {

/// Version of the report layout (the BENCH_*.json artifact and the ledger
/// record built from a report). Bump when a field is renamed, removed, or
/// changes meaning — additive fields do not require a bump.
inline constexpr int kBenchSchemaVersion = 2;

/// Current wall-clock time as an ISO-8601 UTC timestamp
/// ("2026-08-06T12:34:56Z") — the self-describing stamp carried by every
/// artifact and ledger record.
[[nodiscard]] std::string iso8601_utc_now();

/// Collects phases/counters in insertion order and renders a flat JSON
/// object. Non-finite values render as null (JSON has no inf/nan).
/// Artifacts are self-describing: every render carries `schema_version`
/// (kBenchSchemaVersion) and an ISO-8601 UTC `timestamp_utc` captured at
/// construction.
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Job count the bench ran with (after resolve_jobs) plus the machine's
  /// hardware concurrency, so artifacts from different hosts stay comparable.
  void set_jobs(long jobs);

  /// Appends one wall-clock phase (seconds). Phases render in call order.
  void add_phase(const std::string& phase, double seconds);

  /// Appends one workload counter (cells, cells_per_sec, speedup...).
  /// Counters render sorted by key so artifacts diff cleanly run-to-run.
  void add_counter(const std::string& counter, double value);

  /// Overrides the construction-time timestamp (tests pin it for
  /// deterministic artifacts). Must look like an ISO-8601 stamp.
  void set_timestamp_utc(std::string timestamp);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& timestamp_utc() const { return timestamp_; }
  [[nodiscard]] long jobs() const { return jobs_; }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& phases()
      const {
    return phases_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& counters()
      const {
    return counters_;
  }

  /// Total across recorded phases.
  [[nodiscard]] double total_seconds() const;

  [[nodiscard]] std::string to_json() const;

  /// Writes BENCH_<name>.json into `dir` (created if missing, like
  /// `mkdir -p`) and returns the path. Throws std::runtime_error when the
  /// file cannot be written.
  std::string write(const std::string& dir = ".") const;

 private:
  std::string name_;
  std::string timestamp_;
  long jobs_ = 0;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, double>> counters_;
};

}  // namespace axiomcc
