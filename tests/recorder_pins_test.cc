// Pins both backends' flight-recorder output byte for byte. Each test runs a
// scenario through fuzz::run_scenario_recorded with the recorder and a
// 32-step metric scope attached, and compares an FNV-1a digest of each side's
// JSONL event lines against a constant. The header line is left out: it is
// run metadata, and writers may stamp the checkout's commit into it.
//
// Scenarios: the runnable tests/corpus fixtures, plus two inline ones that
// reach every recorder lane — churn, bandwidth and RTT breakpoints, injected
// loss, a cohort, a routed parking lot and aggregate traces.
//
// AXIOMCC_CORPUS_DIR is injected by CMake and points at tests/corpus.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "fuzz/fuzzer.h"
#include "recorder/io.h"

namespace axiomcc::fuzz {
namespace {

/// FNV-1a over the bytes of `text`, as 16 hex digits.
std::string digest(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

/// The JSONL event lines of `recording` (everything after the header).
std::string events_jsonl(const recorder::Recording& recording) {
  const std::string jsonl = recorder::recording_to_jsonl(recording);
  return jsonl.substr(jsonl.find('\n') + 1);
}

void expect_pins(const engine::ScenarioSpec& spec, const char* fluid_pin,
                 const char* packet_pin) {
  RunnerConfig config;
  config.record.enabled = true;
  config.scope.enabled = true;
  config.scope.window_steps = 32;
  const RecordedScenario rs = run_scenario_recorded(spec, config);
  EXPECT_EQ(rs.fluid.backend, "fluid");
  EXPECT_EQ(rs.packet.backend, "packet");
  EXPECT_FALSE(rs.fluid.empty());
  EXPECT_FALSE(rs.packet.empty());
  EXPECT_EQ(digest(events_jsonl(rs.fluid)), fluid_pin);
  EXPECT_EQ(digest(events_jsonl(rs.packet)), packet_pin);
}

void expect_corpus_pins(const char* name, const char* fluid_pin,
                        const char* packet_pin) {
  SCOPED_TRACE(name);
  expect_pins(load_scenario_file(std::string(AXIOMCC_CORPUS_DIR) + "/" + name),
              fluid_pin, packet_pin);
}

TEST(RecorderPins, CorpusFixtures) {
  expect_corpus_pins("batch-cohort-aggregate.scn", "97f3040ae1d521c1",
                     "4bdee2e9334dbf21");
  expect_corpus_pins("divergence-outage-aimd.scn", "e796981a80f4430d",
                     "d60455672b060936");
  expect_corpus_pins("divergence-parking-lot-beatdown.scn",
                     "36bfbc79bca574d8", "ab28cf06c2778000");
  expect_corpus_pins("divergence-rtt-step-veno.scn", "73a8d6ad154cf242",
                     "3b14f1464019e8c6");
  expect_corpus_pins("divergence-zero-buffer.scn", "88839a27dd778329",
                     "19f4c31cb4841e3f");
}

// One link: a 3-sender cohort, a CUBIC that joins at 30 and leaves at 150, a
// Reno that joins at 60, Bernoulli injected loss and both schedules.
TEST(RecorderPins, SingleLinkChurnLossSchedules) {
  expect_pins(parse_scenario("axiomcc-scenario v1\n"
                             "link 30 42 100\n"
                             "steps 200\n"
                             "window 1 1e+09\n"
                             "tail 0.5\n"
                             "seed 7\n"
                             "senders 3 1 0 -1 aimd(1,0.5)\n"
                             "sender 1 30 150 cubic(0.4,0.8)\n"
                             "sender 1 60 -1 reno\n"
                             "loss bernoulli 0.2 0.05\n"
                             "bw 50 0.5\n"
                             "bw 120 1.5\n"
                             "rtt 90 2\n"
                             "rtt 170 1\n"),
              "5424093afbe2b530", "4c57eb67c5f35f7c");
}

// Three bottlenecks in a parking lot with an aggregate trace: a cohort on the
// long route, churning cross traffic, a loss storm and an RTT breakpoint.
TEST(RecorderPins, ParkingLotAggregateStorm) {
  expect_pins(parse_scenario("axiomcc-scenario v1\n"
                             "link 30 42 100\n"
                             "steps 240\n"
                             "window 1 1e+09\n"
                             "tail 0.5\n"
                             "seed 3\n"
                             "trace aggregate\n"
                             "topology parking-lot 3\n"
                             "senders 2 1 0 -1 aimd(1,0.5)\n"
                             "sender 1 0 -1 reno\n"
                             "sender 1 40 180 cubic(0.4,0.8)\n"
                             "sender 1 90 -1 aimd(1,0.5)\n"
                             "loss storm 100 140 0.1 0.3 0 0.2\n"
                             "rtt 160 1.5\n"),
              "8733139e883f48cd", "f57685ea48385b74");
}

}  // namespace
}  // namespace axiomcc::fuzz
