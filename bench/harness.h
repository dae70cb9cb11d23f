// harness.h — the one harness every bench_* binary runs under.
//
// A bench's main is a single bench::run call: it parses the command line
// into a Harness and runs the bench body under run_cli (util/cli.h), which
// turns an exception escaping it into `error: <what>` on stderr and exit 1.
// The harness owns the flags the benches share:
//
//   --out=dir                       where the ledger and trace land
//                                   (default artifacts)
//   --telemetry                     record the metrics registry and spans
//   --jobs=N                        worker count (see resolve_jobs)
//   --backend=fluid|packet          simulator (default fluid)
//   --record[=dir[,classes=list]]   flight-recorder capture (dir: --out)
//
// Each bench lists the flags it reads; --out and --telemetry are always
// read. Any other flag, a positional argument (the ArgParser contract), or
// a value on the --telemetry switch is rejected before the body runs:
// `error: ...` naming it and exit 2.
//
// The body makes its reports with report() and ends with finish(backend),
// which appends exactly one ledger record per report to <out>/ledger.jsonl
// — the benches' only artifact. Under --telemetry every record also carries
// the registry's deterministic counters and its full snapshot,
// trace_<name>.json (open in chrome://tracing or ui.perfetto.dev) lands in
// --out, and a flame summary of span time goes to stderr, so --csv output
// stays pure.
#pragma once

#include <deque>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "engine/scenario.h"
#include "recorder/event.h"
#include "util/bench_json.h"
#include "util/cli.h"

namespace axiomcc::bench {

/// A parsed --record request.
struct RecordRequest {
  std::string dir;
  /// recorder::RecordOptions::classes bitmask (every class by default).
  unsigned classes = recorder::kAllClasses;
};

class Harness {
 public:
  /// Parses the command line of bench `name` reading `flags` (ArgParser's
  /// form). Throws UsageError on a flag it does not read; turns telemetry
  /// recording on under --telemetry.
  Harness(int argc, const char* const* argv, std::string name,
          std::initializer_list<std::string_view> flags);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// The bench's own flags.
  [[nodiscard]] const ArgParser& args() const { return args_; }
  [[nodiscard]] const std::string& out_dir() const { return out_dir_; }

  /// --jobs=N resolved by resolve_jobs. Requires the bench to read --jobs.
  [[nodiscard]] long jobs() const;
  /// --backend. Requires the bench to read --backend.
  [[nodiscard]] engine::BackendKind backend() const;
  /// --record, nullopt without the flag. Requires the bench to read
  /// --record. Throws std::invalid_argument on an unknown or empty class
  /// list.
  [[nodiscard]] std::optional<RecordRequest> record() const;

  /// A new report named `name` (default: the bench's name), its job count
  /// preset to jobs(), or to hardware_jobs() for a bench without --jobs.
  /// finish() appends the reports in the order they were made.
  BenchReport& report(std::string name = {});

  /// Ends the run: stops telemetry (trace file and flame summary), then
  /// appends one ledger record per report, stamped with `backend`. Throws
  /// std::runtime_error when the ledger cannot be written.
  void finish(std::string_view backend);

 private:
  ArgParser args_;
  std::string name_;
  std::string out_dir_;
  bool telemetry_ = false;
  bool finished_ = false;
  std::deque<BenchReport> reports_;
};

/// Runs `body` under a Harness built from the command line, under run_cli:
/// exit 2 on a UsageError, 1 on any other exception.
int run(int argc, const char* const* argv, std::string name,
        std::initializer_list<std::string_view> flags,
        const std::function<int(Harness&)>& body);

}  // namespace axiomcc::bench
