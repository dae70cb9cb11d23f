// fuzzer.h — the coverage-guided fuzz loop and on-disk corpus management.
//
// The loop is generational: a batch of mutants is generated serially from
// the corpus (all randomness drawn from one master Rng), executed in
// parallel via parallel_map (run_scenario is pure, so fan-out preserves
// results exactly), then ingested serially in input order. A mutant is
// retained when its novelty key — bucketed position in the paper's metric
// space plus its outcome classification — has not been seen before; any
// non-clean outcome is recorded as a finding and greedily minimized at the
// end. Because generation and ingestion are serial and the batch size is a
// fixed config value (never derived from the job count), a fuzz run is a
// pure function of (seeds, config): same seed → same corpus, same findings,
// at any --jobs.
//
// Corpus entries live one-per-file as `scn-<fnv1a64>.scn` in the format of
// scenario_text.h, so findings replay exactly and diff cleanly in review.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/minimize.h"
#include "fuzz/mutator.h"
#include "fuzz/runner.h"

namespace axiomcc::fuzz {

/// A retained scenario plus the outcome that made it novel.
struct CorpusEntry {
  engine::ScenarioSpec spec;
  RunOutcome outcome;
};

/// A non-clean outcome the loop surfaced, minimized to a small reproducer.
struct Finding {
  engine::ScenarioSpec original;  ///< the mutant that first tripped it.
  MinimizeResult minimized;       ///< shrunk reproducer + its outcome.
  ExpectDesc expect;  ///< the outcome class both of them reproduce.
};

struct FuzzConfig {
  long runs = 2000;          ///< mutant executions (seed evaluation is extra).
  std::uint64_t seed = 1;    ///< master seed for all mutation randomness.
  long jobs = 0;             ///< fan-out width (0: AXIOMCC_JOBS / hardware).
  /// Mutants generated per round. Fixed by config — deliberately NOT derived
  /// from `jobs`, so the corpus evolution is identical at any job count.
  long batch = 32;
  double splice_probability = 0.25;  ///< chance a mutant starts as crossover.
  long max_findings = 24;    ///< distinct findings kept (dedup by class).
  bool minimize = true;      ///< greedily shrink findings at the end.
  RunnerConfig runner;
  MutatorLimits limits;
  MinimizeOptions minimize_options;
};

struct FuzzStats {
  long executed = 0;           ///< scenario executions (seeds + mutants).
  long retained = 0;           ///< corpus entries kept for novelty.
  long raw_findings = 0;       ///< non-clean outcomes seen (pre-dedup).
  long findings = 0;           ///< distinct findings reported.
  long minimize_attempts = 0;  ///< executions spent shrinking them.
};

struct FuzzResult {
  std::vector<CorpusEntry> corpus;
  std::vector<Finding> findings;
  FuzzStats stats;
};

/// Runs the fuzz loop. `seeds` is the starting corpus; empty means
/// Mutator::seed_corpus(). Deterministic in (config, seeds) at any jobs.
[[nodiscard]] FuzzResult run_fuzz(
    const FuzzConfig& config, std::vector<engine::ScenarioSpec> seeds = {});

/// FNV-1a 64-bit hash of `text` — stable content-addressed corpus names.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& text);

/// Canonical file name for `spec` triaged as `expect`: "scn-<16 hex
/// digits>.scn", hashing the serialized text (expect line included, so
/// triage changes the name).
[[nodiscard]] std::string corpus_file_name(const engine::ScenarioSpec& spec,
                                           const ExpectDesc& expect = {});

/// The `.scn` files directly under `dir`, sorted by file name; an empty or
/// missing directory yields an empty list.
[[nodiscard]] std::vector<std::string> list_corpus_files(
    const std::string& dir);

/// Reads and parses one scenario file, storing its `expect` line in
/// `*expect` when non-null. Throws std::invalid_argument on parse failure
/// and std::runtime_error if the file cannot be read.
[[nodiscard]] engine::ScenarioSpec load_scenario_file(
    const std::string& path, ExpectDesc* expect = nullptr);

/// Serializes `spec` (with `expect`) to `path` (parent directories must
/// exist). Throws std::runtime_error if the file cannot be written.
void save_scenario_file(const std::string& path,
                        const engine::ScenarioSpec& spec,
                        const ExpectDesc& expect = {});

}  // namespace axiomcc::fuzz
