// bench_fuzz — the coverage-guided scenario fuzzer.
//
// Hunts for fluid-vs-packet divergence and guarded-runner invariant
// violations by mutating scenarios (see src/fuzz/) and running every
// mutant on both backends. Retention is novelty-driven: a mutant joins the
// corpus when it lands in a new bucket of the paper's metric space or a new
// outcome class. Findings are greedily minimized and can be written out as
// triaged `.scn` reproducers for tests/corpus/.
//
// Usage: bench_fuzz [--runs=2000] [--seed=1] [--jobs=N] [--batch=32]
//                   [--corpus=DIR] [--save=DIR] [--no-minimize]
//                   [--divergence-threshold=0.35] [--replay] [--markdown]
//                   [--record[=dir[,classes=list]]] [--telemetry]
//                   [--out=dir]
//
// --corpus=DIR   seeds the run with DIR's *.scn files (on top of the
//                built-in seed corpus); with --replay, replays them instead.
// --replay       replay-only mode: every corpus entry is re-run and must
//                reproduce its `expect` line; any mismatch (or untriaged
//                entry) fails the run. This is the CI fuzz-smoke gate.
// --save=DIR     write each minimized finding to DIR as scn-<hash>.scn with
//                its expect line filled in (DIR must exist).
//
// A fixed --seed reproduces the identical corpus and findings at any --jobs
// (generation and ingestion are serial; execution is a pure fan-out).
// Timing, execs/sec, corpus size and finding counts land in the run's
// ledger record (bench/harness.h), where the sentinel tracks them.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "fuzz/fuzzer.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/task_pool.h"

using namespace axiomcc;

namespace {

/// Short human-readable description of an outcome for the findings table.
std::string outcome_detail(const fuzz::RunOutcome& outcome) {
  switch (outcome.kind) {
    case fuzz::OutcomeKind::kDivergence:
      return "gap " + TextTable::num(outcome.divergence, 2);
    case fuzz::OutcomeKind::kFluidFault:
    case fuzz::OutcomeKind::kBothFault:
      return stress::fault_kind_name(outcome.fluid_fault.kind);
    case fuzz::OutcomeKind::kPacketFault:
      return stress::fault_kind_name(outcome.packet_fault.kind);
    case fuzz::OutcomeKind::kClean:
      break;
  }
  return "-";
}

/// Replays every corpus entry and checks it reproduces its expect line.
/// Returns the number of mismatches (untriaged entries count as mismatches:
/// a corpus entry without a triaged expectation can never "pass").
int replay_corpus(const std::vector<std::string>& files,
                  const fuzz::RunnerConfig& runner, long jobs,
                  TextTable::Format format) {
  std::vector<engine::ScenarioSpec> specs;
  std::vector<fuzz::ExpectDesc> expects(files.size());
  specs.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    specs.push_back(fuzz::load_scenario_file(files[i], &expects[i]));
  }
  const std::vector<fuzz::RunOutcome> outcomes = parallel_map(
      specs,
      [&](const engine::ScenarioSpec& spec) {
        return fuzz::run_scenario(spec, runner);
      },
      jobs);

  TextTable table;
  table.set_header({"File", "Expect", "Got", "Detail", "Status"});
  int mismatches = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const fuzz::ExpectDesc& expect = expects[i];
    const bool ok = fuzz::matches_expect(outcomes[i], expect);
    if (!ok) ++mismatches;
    const std::string want =
        expect.empty() ? "(untriaged)"
                       : expect.outcome +
                             (expect.detail.empty() ? "" : " " + expect.detail);
    const std::string base =
        files[i].substr(files[i].find_last_of('/') + 1);
    table.add_row({base, want, fuzz::outcome_kind_name(outcomes[i].kind),
                   outcome_detail(outcomes[i]), ok ? "ok" : "MISMATCH"});
  }
  std::printf("%s\n", table.render(format).c_str());
  return mismatches;
}

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();

  fuzz::FuzzConfig cfg;
  cfg.runs = args.get_int("runs");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  cfg.jobs = h.jobs();
  cfg.batch = args.get_int("batch");
  cfg.minimize = !args.has("no-minimize");
  cfg.runner.divergence_threshold = args.get_double("divergence-threshold");
  // --record[=dir[,classes=list]]: flight-record every oracle run and
  // auto-dump a post-mortem (reproducer + both backends' recorded tails)
  // for each finding next to the other artifacts. A classes list narrows
  // capture to the named event lanes.
  if (const auto& record = h.record()) {
    cfg.runner.record.enabled = true;
    cfg.runner.record.classes = record->classes;
    cfg.runner.postmortem_dir = record->dir;
  }

  const auto format = args.has("markdown") ? TextTable::Format::kMarkdown
                                           : TextTable::Format::kAscii;

  std::vector<std::string> corpus_files;
  if (args.has("corpus")) {
    corpus_files = fuzz::list_corpus_files(args.get_text("corpus"));
  }

  if (args.has("replay")) {
    std::printf("=== Corpus replay (%zu entries, %ld jobs) ===\n",
                corpus_files.size(), cfg.jobs);
    WallTimer timer;
    const int mismatches =
        replay_corpus(corpus_files, cfg.runner, cfg.jobs, format);
    const double run_seconds = timer.seconds();

    BenchReport& bench = h.report();
    bench.add_phase("replay", run_seconds);
    bench.add_counter("replayed", static_cast<double>(corpus_files.size()));
    bench.add_counter("replay_mismatches", static_cast<double>(mismatches));
    h.finish("dual");
    std::printf("%d of %zu entries mismatched\n", mismatches,
                corpus_files.size());
    return mismatches == 0 ? 0 : 1;
  }

  std::vector<engine::ScenarioSpec> seeds = fuzz::Mutator::seed_corpus();
  for (const std::string& file : corpus_files) {
    seeds.push_back(fuzz::load_scenario_file(file));
  }

  std::printf(
      "=== Scenario fuzz (%ld runs, seed %llu, batch %ld, %zu seed "
      "scenarios, %ld jobs) ===\n",
      cfg.runs, static_cast<unsigned long long>(cfg.seed), cfg.batch,
      seeds.size(), cfg.jobs);

  WallTimer timer;
  const fuzz::FuzzResult result = fuzz::run_fuzz(cfg, std::move(seeds));
  const double run_seconds = timer.seconds();
  const double total_execs = static_cast<double>(
      result.stats.executed + result.stats.minimize_attempts);

  BenchReport& bench = h.report();
  bench.add_phase("fuzz", run_seconds);
  bench.add_counter("runs", static_cast<double>(result.stats.executed));
  bench.add_counter("execs_per_sec", total_execs / run_seconds);
  bench.add_counter("corpus_size",
                    static_cast<double>(result.stats.retained));
  bench.add_counter("raw_findings",
                    static_cast<double>(result.stats.raw_findings));
  bench.add_counter("findings", static_cast<double>(result.stats.findings));
  bench.add_counter("minimize_attempts",
                    static_cast<double>(result.stats.minimize_attempts));
  h.finish("dual");

  TextTable table;
  table.set_header({"Finding", "Outcome", "Detail", "Steps", "Senders",
                    "Shrink"});
  for (const fuzz::Finding& finding : result.findings) {
    const engine::ScenarioSpec& spec = finding.minimized.spec;
    table.add_row({fuzz::corpus_file_name(spec),
                   fuzz::outcome_kind_name(finding.minimized.outcome.kind),
                   outcome_detail(finding.minimized.outcome),
                   std::to_string(spec.steps),
                   std::to_string(spec.senders.size()),
                   std::to_string(finding.minimized.accepted) + "/" +
                       std::to_string(finding.minimized.attempts)});
  }
  std::printf("%s\n", table.render(format).c_str());

  if (args.has("save")) {
    for (const fuzz::Finding& finding : result.findings) {
      const engine::ScenarioSpec& spec = finding.minimized.spec;
      const std::string path = args.get_text("save") + "/" +
                               fuzz::corpus_file_name(spec, finding.expect);
      fuzz::save_scenario_file(path, spec, finding.expect);
      std::printf("saved %s\n", path.c_str());
    }
  }

  std::printf(
      "%ld execs (%ld fuzz + %ld minimize), %.0f execs/sec, corpus %ld, "
      "%ld findings (%ld raw)\n",
      static_cast<long>(total_execs), result.stats.executed,
      result.stats.minimize_attempts, total_execs / run_seconds,
      result.stats.retained, result.stats.findings,
      result.stats.raw_findings);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "fuzz",
                    {{"runs", Flag::kInt, "2000", Bound::kPositive},
                     {"seed", Flag::kInt, "1"}, Flag::jobs(),
                     {"batch", Flag::kInt, "32", Bound::kPositive},
                     {"corpus", Flag::kText}, {"save", Flag::kText},
                     {"no-minimize"},
                     {"divergence-threshold", Flag::kReal, "0.35",
                      Bound::kNonNegative},
                     {"replay"}, bench::record_flag(), {"markdown"}},
                    run_bench);
}
