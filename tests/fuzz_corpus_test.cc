// Replays every checked-in corpus entry (tests/corpus/*.scn) and checks it
// still reproduces its triaged `expect` line. A behavior change in either
// backend, the guarded runner, or the metric estimators surfaces here as a
// loud mismatch instead of silently shifting the fuzzer's baseline.
//
// AXIOMCC_CORPUS_DIR is injected by CMake and points at the source tree's
// tests/corpus directory.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "recorder/io.h"

namespace axiomcc::fuzz {
namespace {

std::vector<std::string> corpus_files() {
  return list_corpus_files(AXIOMCC_CORPUS_DIR);
}

TEST(FuzzCorpus, CorpusIsNotEmpty) {
  EXPECT_FALSE(corpus_files().empty())
      << "no .scn files under " << AXIOMCC_CORPUS_DIR;
}

/// Every bit of an outcome the pins compare: kind, divergence and each
/// trace metric on both sides.
std::vector<std::uint64_t> outcome_bits(const RunOutcome& o) {
  std::vector<std::uint64_t> bits{static_cast<std::uint64_t>(o.kind),
                                  std::bit_cast<std::uint64_t>(o.divergence)};
  for (const TraceMetrics* m : {&o.fluid, &o.packet}) {
    for (const double v : {m->efficiency, m->mean_loss, m->fairness,
                           m->convergence, m->latency}) {
      bits.push_back(std::bit_cast<std::uint64_t>(v));
    }
    bits.push_back(static_cast<std::uint64_t>(m->steps));
  }
  return bits;
}

TEST(FuzzCorpus, EveryEntryIsTriaged) {
  for (const std::string& file : corpus_files()) {
    ExpectDesc expect;
    (void)load_scenario_file(file, &expect);
    EXPECT_FALSE(expect.empty())
        << file << " has no expect line — triage it before checking it in";
  }
}

TEST(FuzzCorpus, EveryEntryRoundTripsThroughText) {
  for (const std::string& file : corpus_files()) {
    ExpectDesc expect;
    const engine::ScenarioSpec spec = load_scenario_file(file, &expect);
    // Comments are not preserved, but the parsed content must be.
    const std::string text = serialize_scenario(spec, expect);
    ExpectDesc reread;
    EXPECT_EQ(serialize_scenario(parse_scenario(text, &reread), reread), text)
        << file;
    EXPECT_EQ(reread, expect) << file;
  }
}

TEST(FuzzCorpus, V1EntriesRewriteToAV2FixedPoint) {
  // The checked-in fixtures are v1. Read once, they write v2 (engine units,
  // explicit links and routes); that v2 text reads back to a spec that
  // writes the same bytes, and it runs bit-identically to the v1 reading.
  for (const std::string& file : corpus_files()) {
    const std::string v1 = recorder::read_text_file(file);
    ASSERT_NE(v1.find("axiomcc-scenario v1\n"), std::string::npos) << file;
    ExpectDesc expect;
    const engine::ScenarioSpec from_v1 = parse_scenario(v1, &expect);
    const std::string v2 = serialize_scenario(from_v1, expect);
    ASSERT_EQ(v2.rfind("axiomcc-scenario v2\n", 0), 0u) << v2;
    ExpectDesc reread;
    const engine::ScenarioSpec from_v2 = parse_scenario(v2, &reread);
    EXPECT_EQ(serialize_scenario(from_v2, reread), v2) << file;
    EXPECT_EQ(reread, expect) << file;
    EXPECT_EQ(outcome_bits(run_scenario(from_v2)),
              outcome_bits(run_scenario(from_v1)))
        << file;
  }
}

TEST(FuzzCorpus, EveryEntryReproducesItsExpectedOutcome) {
  for (const std::string& file : corpus_files()) {
    ExpectDesc expect;
    const engine::ScenarioSpec spec = load_scenario_file(file, &expect);
    ASSERT_FALSE(expect.empty()) << file;
    const RunOutcome outcome = run_scenario(spec);
    EXPECT_TRUE(matches_expect(outcome, expect))
        << file << ": expected '" << expect.outcome << " " << expect.detail
        << "', got '" << outcome_kind_name(outcome.kind) << "' (divergence "
        << outcome.divergence << ")";
  }
}

}  // namespace
}  // namespace axiomcc::fuzz
