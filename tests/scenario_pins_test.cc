// Pins what a scenario run produces, bit for bit, so a change to how
// scenarios are described, read or assembled cannot move a result unseen.
//
//  * Oracle outcomes: every tests/corpus fixture and every built-in seed
//    scenario runs through fuzz::run_scenario; an FNV-1a digest covers the
//    outcome kind, the divergence bits and the bits of every TraceMetrics
//    field on both backends.
//  * Gauntlet cells: the write_gauntlet_csv output for two protocols over
//    the standard scenario library at seed 1 and 300 steps, without the
//    axiom metrics, on the fluid and on the packet backend.
//
// AXIOMCC_CORPUS_DIR is injected by CMake and points at tests/corpus.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/gauntlet.h"
#include "fuzz/fuzzer.h"

namespace axiomcc::fuzz {
namespace {

/// FNV-1a over a stream of 64-bit words, as 16 hex digits.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(long v) { add(static_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h_));
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_metrics(Digest& d, const TraceMetrics& m) {
  d.add(m.efficiency);
  d.add(m.mean_loss);
  d.add(m.fairness);
  d.add(m.convergence);
  d.add(m.latency);
  d.add(m.steps);
}

std::string outcome_digest(const RunOutcome& outcome) {
  Digest d;
  d.add(static_cast<long>(outcome.kind));
  d.add(outcome.divergence);
  add_metrics(d, outcome.fluid);
  add_metrics(d, outcome.packet);
  return d.hex();
}

std::string text_digest(const std::string& text) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return out;
}

TEST(ScenarioPins, CorpusFixtureOutcomes) {
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"batch-cohort-aggregate.scn", "9f7811bf56ab4eb4"},
      {"divergence-outage-aimd.scn", "54a8d02c0424606c"},
      {"divergence-parking-lot-beatdown.scn", "835c1cc3bd9d8bb2"},
      {"divergence-rtt-step-veno.scn", "f47003b8abaa3078"},
      {"divergence-zero-buffer.scn", "b111e77a4e13b961"},
      {"fault-late-joiner-contract.scn", "ed1feedcf4c394e1"},
  };
  ASSERT_EQ(list_corpus_files(AXIOMCC_CORPUS_DIR).size(), pins.size())
      << "a corpus fixture was added or removed; pin it here";
  for (const auto& [name, pin] : pins) {
    const auto scenario =
        load_scenario_file(std::string(AXIOMCC_CORPUS_DIR) + "/" + name);
    EXPECT_EQ(outcome_digest(run_scenario(scenario)), pin) << name;
  }
}

TEST(ScenarioPins, SeedCorpusOutcomes) {
  const std::vector<std::string> pins = {
      "9faa54d78c1e0a81", "1ad21f4d4bbd4aa1",
      "395f8a43e8538bbe", "d34838b679e381d3",
      "55063acf14c09bbe", "80b9ba1b60440edd",
      "2c84f39d98c8b514", "b5c022f6df599c68",
      "b97cba8f7b4fe897", "ada0440e76e8df99",
      "3f7ca4d148a6598d",
  };
  const auto seeds = Mutator::seed_corpus();
  ASSERT_EQ(seeds.size(), pins.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(outcome_digest(run_scenario(seeds[i])), pins[i])
        << "seed scenario " << i;
  }
}

std::string gauntlet_csv_digest(engine::BackendKind backend) {
  exp::GauntletConfig cfg;
  cfg.steps = 300;
  cfg.seeds = {1};
  cfg.include_axiom_metrics = false;
  cfg.backend = backend;
  const exp::GauntletResult result =
      exp::run_gauntlet({"aimd(1,0.5)", "cubic(0.4,0.8)"}, cfg);
  std::ostringstream csv;
  exp::write_gauntlet_csv(result.cells, csv);
  return text_digest(csv.str());
}

TEST(ScenarioPins, GauntletCellsFluid) {
  EXPECT_EQ(gauntlet_csv_digest(engine::BackendKind::kFluid),
            "ff9f40d136ce7563");
}

TEST(ScenarioPins, GauntletCellsPacket) {
  EXPECT_EQ(gauntlet_csv_digest(engine::BackendKind::kPacket),
            "0eaeca60286bfb1b");
}

}  // namespace
}  // namespace axiomcc::fuzz
