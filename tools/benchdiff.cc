// axiomcc-benchdiff — the regression sentinel's CLI.
//
// Compares bench runs recorded in the run ledger (every bench binary
// appends one record per run to <out>/ledger.jsonl) and reports per-metric
// deltas with noise-aware verdicts: deterministic telemetry counters must
// be byte-identical, workload counters must match exactly, and wall-clock
// timings are judged against a rolling median ± MAD band (window mode) or a
// relative threshold (two-ledger mode). Timings are skipped when the runs
// are not wall-clock comparable (different --jobs or build flavor), which
// is what keeps a same-SHA rerun at a different job count green.
//
// Usage:
//   axiomcc-benchdiff [--ledger=path] [--bench=NAME] [--window=8]
//                     [--threshold=0.20] [--mad-k=3] [--floor=0.01]
//                     [--no-spark]
//   axiomcc-benchdiff --report [--ledger=path] [--bench=NAME] [--window=12]
//   axiomcc-benchdiff [options] BASELINE CURRENT
//
// Ledger mode (no positionals): loads the ledger (default
// artifacts/ledger.jsonl), groups records by (bench, backend), and diffs
// each group's newest record against the window of prior runs. --bench
// restricts to one bench.
//
// Report mode (--report): instead of diffing, renders markdown trend
// tables across the whole ledger — one table per (bench, backend) group,
// newest value vs the rolling median plus a sparkline — ready to paste
// into a PR description. Always exits 0 (informational).
//
// Two-ledger mode: BASELINE and CURRENT are JSONL ledgers; the last record
// of each (--bench filtered) is compared.
//
// Exit codes: 0 clean, 1 any regression or deterministic mismatch,
// 2 usage/IO error.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

#include "analysis/ascii_plot.h"
#include "ledger/ledger.h"
#include "ledger/report.h"
#include "ledger/sentinel.h"
#include "util/cli.h"

using namespace axiomcc;

namespace {

/// The records of the ledger at `path`, --bench filtered.
std::vector<ledger::LedgerRecord> load_records(const std::string& path,
                                               const std::string& bench) {
  ledger::LedgerFile file = ledger::read_ledger(path);
  if (file.skipped_lines > 0) {
    std::fprintf(stderr, "[benchdiff] %s: skipped %zu unparseable line(s)\n",
                 path.c_str(), file.skipped_lines);
  }
  if (!bench.empty()) {
    std::erase_if(file.records, [&bench](const ledger::LedgerRecord& r) {
      return r.bench != bench;
    });
  }
  return std::move(file.records);
}

int run(int argc, char** argv) {
  const ArgParser args(argc, argv,
                       {"ledger", "bench", "window", "threshold", "mad-k",
                        "floor", "no-spark", "report"},
                       ArgParser::Positionals::kAccepted);
  ledger::SentinelOptions options;
  options.timing_threshold = args.get_double("threshold", 0.20);
  options.mad_k = args.get_double("mad-k", 3.0);
  options.timing_floor_seconds = args.get_double("floor", 0.01);
  const long window_size = args.get_int("window", 8);
  const std::string bench_filter = args.get_or("bench", "");

  const auto spark = args.has("no-spark")
                         ? std::function<std::string(const std::vector<double>&)>()
                         : [](const std::vector<double>& values) {
                             return analysis::sparkline(values, 24);
                           };

  const auto& positional = args.positional();
  const std::string ledger_path = args.get_or("ledger", "").empty()
                                      ? "artifacts/ledger.jsonl"
                                      : *args.get("ledger");
  bool regression = false;
  bool compared_anything = false;

  if (args.has("report")) {
    if (!positional.empty()) {
      std::fprintf(stderr,
                   "usage: axiomcc-benchdiff --report [--ledger=path] "
                   "[--bench=NAME] [--window=12]\n");
      return 2;
    }
    ledger::ReportOptions report_options;
    report_options.bench_filter = bench_filter;
    report_options.max_history = static_cast<std::size_t>(
        std::max(1L, args.get_int("window", 12)));
    std::fputs(ledger::render_ledger_report(load_records(ledger_path, ""),
                                            report_options, spark)
                   .c_str(),
               stdout);
    return 0;
  }

  if (positional.size() == 2) {
    // Two-ledger mode: last (filtered) record of each input.
    const auto baseline = load_records(positional[0], bench_filter);
    const auto current = load_records(positional[1], bench_filter);
    if (baseline.empty() || current.empty()) {
      std::fprintf(stderr, "error: no comparable records in %s\n",
                   (baseline.empty() ? positional[0] : positional[1]).c_str());
      return 2;
    }
    const ledger::DiffReport report =
        ledger::diff_records(baseline.back(), current.back(), options);
    std::fputs(ledger::render_report(report, spark).c_str(), stdout);
    return report.regression() ? 1 : 0;
  }
  if (!positional.empty()) {
    std::fprintf(stderr,
                 "usage: axiomcc-benchdiff [options] [BASELINE CURRENT]\n"
                 "       (exactly zero or two positional files)\n");
    return 2;
  }

  // Ledger mode.
  std::map<std::pair<std::string, std::string>,
           std::vector<ledger::LedgerRecord>>
      groups;
  for (ledger::LedgerRecord& record : load_records(ledger_path, bench_filter)) {
    groups[{record.bench, record.backend}].push_back(std::move(record));
  }
  if (groups.empty()) {
    std::fprintf(stderr, "error: no records%s%s in %s\n",
                 bench_filter.empty() ? "" : " for bench ",
                 bench_filter.c_str(), ledger_path.c_str());
    return 2;
  }

  for (const auto& [key, records] : groups) {
    if (records.size() < 2) {
      std::printf("=== benchdiff: %s — first recorded run (%s), nothing to "
                  "compare ===\n",
                  key.first.c_str(), records.back().timestamp_utc.c_str());
      continue;
    }
    compared_anything = true;
    const std::size_t prior = records.size() - 1;
    const std::size_t take = std::min(
        prior, static_cast<std::size_t>(window_size > 0 ? window_size : 1));
    const std::span<const ledger::LedgerRecord> window(
        records.data() + (prior - take), take);
    const ledger::DiffReport report =
        ledger::diff_against_window(window, records.back(), options);
    std::fputs(ledger::render_report(report, spark).c_str(), stdout);
    std::printf("\n");
    regression = regression || report.regression();
  }

  if (!compared_anything) return 0;  // a fresh ledger is not a failure
  return regression ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
