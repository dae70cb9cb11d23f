// End-to-end triage tests: checked-in corpus reproducers re-executed with
// the flight recorder attached, step-aligned across the two backends, and
// (for faults) dumped as post-mortems the inspect renderer can display.
// This pins the whole `axiomcc-inspect --align repro.scn` workflow, not
// just the pieces.
//
// AXIOMCC_CORPUS_DIR is injected by CMake and points at tests/corpus.
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/recorder_report.h"
#include "fuzz/fuzzer.h"
#include "recorder/align.h"
#include "recorder/io.h"
#include "recorder/postmortem.h"

namespace axiomcc::fuzz {
namespace {

using recorder::EventClass;

RecordedScenario replay(const char* name, RunnerConfig config = {}) {
  const engine::ScenarioSpec spec =
      load_scenario_file(std::string(AXIOMCC_CORPUS_DIR) + "/" + name);
  config.record.enabled = true;
  return run_scenario_recorded(spec, config);
}

TEST(RecorderInspect, ZeroBufferReproducerLocalizesToLossOnset) {
  const RecordedScenario rs = replay("divergence-zero-buffer.scn");
  EXPECT_EQ(rs.outcome.kind, OutcomeKind::kDivergence);
  EXPECT_EQ(rs.fluid.backend, "fluid");
  EXPECT_EQ(rs.packet.backend, "packet");
  ASSERT_FALSE(rs.fluid.empty());
  ASSERT_FALSE(rs.packet.empty());

  // Zero buffer: the packet backend drops from the first step (droptail
  // with no queue), while the fluid model's synchronized loss stays a rate.
  // The aligner must localize the disagreement to the loss transition at
  // step 0, not merely report the tail-metric gap.
  const recorder::AlignResult res =
      recorder::align_recordings(rs.fluid, rs.packet);
  EXPECT_TRUE(res.diverged);
  EXPECT_EQ(res.first_divergence_step, 0);
  EXPECT_EQ(res.trigger, EventClass::kLoss);
  EXPECT_NE(res.reason.find("loss/onset"), std::string::npos) << res.reason;
  EXPECT_FALSE(res.right_events.empty());

  const std::string rendered =
      analysis::render_alignment(res, "fluid", "packet");
  EXPECT_NE(rendered.find("DIVERGED at step 0"), std::string::npos)
      << rendered;
}

TEST(RecorderInspect, OutageReproducerDivergesWithContext) {
  const RecordedScenario rs = replay("divergence-outage-aimd.scn");
  EXPECT_EQ(rs.outcome.kind, OutcomeKind::kDivergence);
  const recorder::AlignResult res =
      recorder::align_recordings(rs.fluid, rs.packet);
  EXPECT_TRUE(res.diverged);
  EXPECT_GE(res.first_divergence_step, 0);
  EXPECT_FALSE(res.reason.empty());
  EXPECT_FALSE(res.left_events.empty() && res.right_events.empty())
      << "divergence context should carry surrounding events";
}

TEST(RecorderInspect, ReplayIsDeterministic) {
  const RecordedScenario first = replay("divergence-zero-buffer.scn");
  const RecordedScenario second = replay("divergence-zero-buffer.scn");
  EXPECT_EQ(recorder::recording_to_jsonl(first.fluid),
            recorder::recording_to_jsonl(second.fluid));
  EXPECT_EQ(recorder::recording_to_jsonl(first.packet),
            recorder::recording_to_jsonl(second.packet));
}

TEST(RecorderInspect, FaultReproducerDumpsRenderablePostMortem) {
  RunnerConfig config;
  config.postmortem_dir = testing::TempDir();
  const RecordedScenario rs = replay("fault-late-joiner-contract.scn", config);
  EXPECT_EQ(rs.outcome.kind, OutcomeKind::kBothFault);
  ASSERT_FALSE(rs.outcome.postmortem_path.empty());
  std::ifstream probe(rs.outcome.postmortem_path);
  ASSERT_TRUE(probe.good()) << rs.outcome.postmortem_path;
  probe.close();

  const recorder::PostMortem pm = recorder::parse_postmortem_jsonl(
      recorder::read_text_file(rs.outcome.postmortem_path));
  EXPECT_EQ(pm.kind, "both-fault");
  ASSERT_EQ(pm.sides.size(), 2u);
  EXPECT_EQ(pm.sides[0].label, "fluid");
  EXPECT_EQ(pm.sides[1].label, "packet");
  EXPECT_EQ(pm.sides[0].fault_kind, "exception");
  EXPECT_EQ(pm.sides[1].fault_kind, "exception");
  // The dump embeds the byte-exact reproducer, so the post-mortem alone is
  // enough to re-run the scenario.
  const engine::ScenarioSpec original = load_scenario_file(
      std::string(AXIOMCC_CORPUS_DIR) + "/fault-late-joiner-contract.scn");
  EXPECT_EQ(serialize_scenario(parse_scenario(pm.scenario_text)),
            serialize_scenario(original));

  const std::string rendered = analysis::render_postmortem(pm, {});
  EXPECT_NE(rendered.find("exception"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("fluid"), std::string::npos);
  std::remove(rs.outcome.postmortem_path.c_str());
}

TEST(RecorderInspect, CleanRunsDumpNoPostMortem) {
  // Recording on, postmortem_dir unset: nothing may land on disk even for
  // findings, and the path stays empty.
  const RecordedScenario rs = replay("divergence-zero-buffer.scn");
  EXPECT_TRUE(rs.outcome.postmortem_path.empty());
}

}  // namespace
}  // namespace axiomcc::fuzz
