#include "fuzz/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "telemetry/telemetry.h"
#include "util/task_pool.h"

namespace axiomcc::fuzz {

namespace {

/// Coarse dedup key for findings: outcome class + fault kinds + divergence
/// in half-steps. Coarser than the novelty key on purpose — two mutants that
/// trip the same fault at slightly different metric positions are one bug.
std::uint64_t finding_key(const RunOutcome& outcome) {
  std::uint64_t key = static_cast<std::uint64_t>(outcome.kind);
  key = (key << 4) | static_cast<std::uint64_t>(outcome.fluid_fault.kind);
  key = (key << 4) | static_cast<std::uint64_t>(outcome.packet_fault.kind);
  key = (key << 4) |
        std::min<std::uint64_t>(
            15, static_cast<std::uint64_t>(
                    std::max(0.0, outcome.divergence) * 2.0));
  return key;
}

}  // namespace

FuzzResult run_fuzz(const FuzzConfig& config,
                    std::vector<engine::ScenarioSpec> seeds) {
  const Mutator mutator(config.limits);
  if (seeds.empty()) seeds = Mutator::seed_corpus();

  FuzzResult result;
  Rng rng(config.seed);
  std::unordered_set<std::uint64_t> seen_novelty;
  std::unordered_set<std::uint64_t> finding_keys;
  std::vector<std::pair<engine::ScenarioSpec, RunOutcome>> raw_findings;

  const auto ingest = [&](const engine::ScenarioSpec& spec,
                          const RunOutcome& outcome) {
    ++result.stats.executed;
    if (seen_novelty.insert(outcome.novelty_key).second) {
      result.corpus.push_back(CorpusEntry{spec, outcome});
      ++result.stats.retained;
      TELEMETRY_COUNT("fuzz.retained", 1);
    }
    if (outcome.is_finding()) {
      ++result.stats.raw_findings;
      if (static_cast<long>(finding_keys.size()) < config.max_findings &&
          finding_keys.insert(finding_key(outcome)).second) {
        raw_findings.emplace_back(spec, outcome);
      }
    }
  };

  const auto run_batch = [&](const std::vector<engine::ScenarioSpec>& batch) {
    const std::vector<RunOutcome> outcomes = parallel_map(
        batch,
        [&](const engine::ScenarioSpec& spec) {
          return run_scenario(spec, config.runner);
        },
        config.jobs);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ingest(batch[i], outcomes[i]);
    }
  };

  // Seed evaluation: every starting scenario is executed and ingested first,
  // so the mutation loop always has a non-empty corpus to draw parents from.
  run_batch(seeds);

  const long batch_size = std::max<long>(1, config.batch);
  long mutants_run = 0;
  while (mutants_run < config.runs) {
    const long n = std::min(batch_size, config.runs - mutants_run);
    std::vector<engine::ScenarioSpec> generation;
    generation.reserve(static_cast<std::size_t>(n));
    for (long i = 0; i < n; ++i) {
      const std::size_t corpus_size = result.corpus.size();
      const engine::ScenarioSpec& parent =
          result.corpus[rng.uniform_index(corpus_size)].spec;
      if (corpus_size > 1 && rng.bernoulli(config.splice_probability)) {
        const engine::ScenarioSpec& other =
            result.corpus[rng.uniform_index(corpus_size)].spec;
        generation.push_back(
            mutator.mutate(mutator.splice(parent, other, rng), rng));
      } else {
        generation.push_back(mutator.mutate(parent, rng));
      }
    }
    run_batch(generation);
    mutants_run += n;
  }

  for (auto& [spec, outcome] : raw_findings) {
    Finding finding;
    finding.original = spec;
    finding.expect = expect_for(outcome);
    if (config.minimize) {
      finding.minimized = minimize_finding(spec, finding.expect, config.runner,
                                           config.minimize_options);
    } else {
      finding.minimized.spec = spec;
      finding.minimized.outcome = outcome;
    }
    result.stats.minimize_attempts += finding.minimized.attempts;
    result.findings.push_back(std::move(finding));
  }
  result.stats.findings = static_cast<long>(result.findings.size());
  return result;
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string corpus_file_name(const engine::ScenarioSpec& spec,
                             const ExpectDesc& expect) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "scn-%016llx.scn",
                static_cast<unsigned long long>(
                    fnv1a64(serialize_scenario(spec, expect))));
  return buffer;
}

std::vector<std::string> list_corpus_files(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

engine::ScenarioSpec load_scenario_file(const std::string& path,
                                        ExpectDesc* expect) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read scenario file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_scenario(text.str(), expect);
}

void save_scenario_file(const std::string& path,
                        const engine::ScenarioSpec& spec,
                        const ExpectDesc& expect) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write scenario file: " + path);
  out << serialize_scenario(spec, expect);
  if (!out) throw std::runtime_error("cannot write scenario file: " + path);
}

}  // namespace axiomcc::fuzz
