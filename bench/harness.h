// harness.h — the one harness every bench_* binary runs under.
//
// A bench's main is a single bench::run call: it parses the command line
// into a Harness and runs the bench body under run_cli (util/cli.h), which
// turns an exception escaping it into `error: <what>` on stderr and exit 1.
// The harness owns the flags the benches share:
//
//   --out=dir                       where the ledger and trace land
//                                   (default artifacts)
//   --telemetry                     record the counters and spans
//   --jobs=N                        worker count (Flag::jobs, see get_jobs)
//   --backend=fluid|packet          simulator (backend_flag, default fluid)
//   --record[=dir[,classes=list]]   flight-recorder capture (record_flag;
//                                   dir: --out)
//
// Each bench declares the flags it reads (util/cli.h); --out and
// --telemetry are always declared. The Harness parses every declared flag,
// --backend and --record included, before the body runs: a flag the bench
// does not declare, a positional argument, a value on the --telemetry
// switch, or a value a declaration rejects (an unknown backend or recorder
// class among them) is `error: ...` naming the flag and exit 2.
//
// The body makes its reports with report() and ends with finish(backend),
// which appends exactly one ledger record per report to <out>/ledger.jsonl
// — the benches' only artifact. Under --telemetry every record also carries
// the registry's counters as deterministic_counters, trace_<name>.json
// (open in chrome://tracing or ui.perfetto.dev) lands in --out, and a flame
// summary of span time goes to stderr, so --csv output stays pure.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

/// The shared --backend=fluid|packet flag (default fluid).
[[nodiscard]] Flag backend_flag();
/// The shared --record[=dir[,classes=list]] flag.
[[nodiscard]] Flag record_flag();

class Harness {
 public:
  /// Parses the command line of bench `name` against `flags` plus --out and
  /// --telemetry. Throws UsageError on a flag it does not declare or a
  /// value a declaration rejects; turns telemetry recording on under
  /// --telemetry.
  Harness(int argc, const char* const* argv, std::string name,
          std::vector<Flag> flags);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// The bench's own flags.
  [[nodiscard]] const ArgParser& args() const { return args_; }
  [[nodiscard]] const std::string& out_dir() const { return out_dir_; }

  /// --jobs=N resolved by ArgParser::get_jobs. Requires Flag::jobs().
  [[nodiscard]] long jobs() const { return args_.get_jobs(); }
  /// --backend. Requires backend_flag().
  [[nodiscard]] engine::BackendKind backend() const;
  /// --record, nullopt without the flag (or without record_flag()).
  [[nodiscard]] const std::optional<RecordRequest>& record() const {
    return record_;
  }

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
  long report_jobs_ = 0;
  std::optional<RecordRequest> record_;
  bool telemetry_ = false;
  bool finished_ = false;
  std::deque<BenchReport> reports_;
};

/// Runs `body` under a Harness built from the command line, under run_cli:
/// exit 2 on a UsageError, 1 on any other exception.
int run(int argc, const char* const* argv, std::string name,
        std::vector<Flag> flags, const std::function<int(Harness&)>& body);

}  // namespace axiomcc::bench
