// Tests for the fuzz loop's determinism contract and the on-disk corpus
// helpers.
#include "fuzz/fuzzer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace axiomcc::fuzz {
namespace {

/// A small, fast config: short horizons, no minimization.
FuzzConfig small_config() {
  FuzzConfig cfg;
  cfg.runs = 24;
  cfg.batch = 8;
  cfg.seed = 3;
  cfg.minimize = false;
  cfg.limits.min_steps = 80;
  cfg.limits.max_steps = 160;
  return cfg;
}

/// The corpus reduced to its novelty keys (descs compare slowly).
std::vector<std::uint64_t> novelty_keys(const FuzzResult& result) {
  std::vector<std::uint64_t> keys;
  keys.reserve(result.corpus.size());
  for (const CorpusEntry& entry : result.corpus) {
    keys.push_back(entry.outcome.novelty_key);
  }
  return keys;
}

TEST(FuzzFuzzer, FixedSeedReproduces) {
  const FuzzConfig cfg = small_config();
  const FuzzResult a = run_fuzz(cfg);
  const FuzzResult b = run_fuzz(cfg);
  EXPECT_EQ(a.stats.executed, b.stats.executed);
  EXPECT_EQ(a.stats.retained, b.stats.retained);
  EXPECT_EQ(a.stats.raw_findings, b.stats.raw_findings);
  EXPECT_EQ(novelty_keys(a), novelty_keys(b));
  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(serialize_scenario(a.findings[i].original),
              serialize_scenario(b.findings[i].original));
    EXPECT_EQ(a.findings[i].expect.outcome, b.findings[i].expect.outcome);
  }
}

TEST(FuzzFuzzer, JobCountDoesNotChangeResults) {
  FuzzConfig cfg = small_config();
  cfg.jobs = 1;
  const FuzzResult serial = run_fuzz(cfg);
  cfg.jobs = 4;
  const FuzzResult parallel = run_fuzz(cfg);
  EXPECT_EQ(serial.stats.retained, parallel.stats.retained);
  EXPECT_EQ(serial.stats.raw_findings, parallel.stats.raw_findings);
  EXPECT_EQ(novelty_keys(serial), novelty_keys(parallel));
  ASSERT_EQ(serial.findings.size(), parallel.findings.size());
  for (std::size_t i = 0; i < serial.findings.size(); ++i) {
    EXPECT_EQ(serialize_scenario(serial.findings[i].original),
              serialize_scenario(parallel.findings[i].original));
  }
}

TEST(FuzzFuzzer, DifferentSeedsExploreDifferently) {
  FuzzConfig cfg = small_config();
  const FuzzResult a = run_fuzz(cfg);
  cfg.seed = 4;
  const FuzzResult b = run_fuzz(cfg);
  EXPECT_NE(novelty_keys(a), novelty_keys(b));
}

TEST(FuzzFuzzer, Fnv1a64MatchesReference) {
  // Standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(FuzzFuzzer, CorpusFileNameIsContentAddressed) {
  const engine::ScenarioSpec a = default_scenario();
  engine::ScenarioSpec b = default_scenario();
  b.steps = 123;
  EXPECT_EQ(corpus_file_name(a), corpus_file_name(default_scenario()));
  EXPECT_NE(corpus_file_name(a), corpus_file_name(b));
  // Triage is part of the name.
  EXPECT_NE(corpus_file_name(a), corpus_file_name(a, {"divergence", ""}));
  EXPECT_TRUE(corpus_file_name(a).starts_with("scn-"));
  EXPECT_TRUE(corpus_file_name(a).ends_with(".scn"));
}

TEST(FuzzFuzzer, SaveLoadListRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "axiomcc_fuzz_corpus_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  engine::ScenarioSpec spec = default_scenario();
  spec.steps = 99;
  const ExpectDesc expect{"divergence", ""};
  const std::string path = (dir / corpus_file_name(spec, expect)).string();
  save_scenario_file(path, spec, expect);

  engine::ScenarioSpec other = default_scenario();
  other.link.propagation_delay = Seconds(0.005);
  save_scenario_file((dir / corpus_file_name(other)).string(), other);
  // Non-.scn files are ignored.
  save_scenario_file((dir / "notes.txt").string(), other);

  const std::vector<std::string> files = list_corpus_files(dir.string());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  ExpectDesc loaded_expect;
  EXPECT_EQ(serialize_scenario(load_scenario_file(path, &loaded_expect)),
            serialize_scenario(spec));
  EXPECT_EQ(loaded_expect, expect);

  std::filesystem::remove_all(dir);
}

TEST(FuzzFuzzer, MissingCorpusDirYieldsEmptyList) {
  EXPECT_TRUE(list_corpus_files("/nonexistent/axiomcc-fuzz-dir").empty());
}

}  // namespace
}  // namespace axiomcc::fuzz
