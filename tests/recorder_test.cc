// Unit tests for the flight recorder: ring eviction and drop accounting,
// the JSONL wire formats (recording and post-mortem) round-tripping, and
// the step-aligned divergence localizer's core semantics.
#include "recorder/recorder.h"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "recorder/align.h"
#include "recorder/io.h"
#include "recorder/postmortem.h"

namespace axiomcc::recorder {
namespace {

Event ev(long step, EventClass cls, EventCode code,
         Subject kind = Subject::kRun, int subject = -1, double a = 0.0,
         double b = 0.0) {
  return Event{step, cls, code, kind, subject, a, b};
}

/// A hand-built recording the aligner and writers accept: capture options
/// mark it enabled with all classes, matching what `snapshot()` produces.
Recording make_recording(long steps, std::vector<Event> events) {
  Recording r;
  r.backend = "fluid";
  r.senders = 4;
  r.steps = steps;
  r.options.enabled = true;
  r.events = std::move(events);
  return r;
}

// ---------------------------------------------------------------------------
// Capture machinery.

TEST(Recorder, RingKeepsNewestAndCountsDropped) {
  RecordOptions options;
  options.enabled = true;
  options.ring_depth = 4;
  Recorder rec(options);
  for (long step = 0; step < 10; ++step) {
    rec.emit(ev(step, EventClass::kWindow, EventCode::kTotal, Subject::kRun,
                -1, 100.0 + static_cast<double>(step)));
    rec.note_step(step);
  }
  const Recording snap = rec.snapshot();
  EXPECT_EQ(snap.steps, 10);
  EXPECT_EQ(snap.dropped, 6u);
  ASSERT_EQ(snap.events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap.events[i].step, 6 + i) << i;
    EXPECT_DOUBLE_EQ(snap.events[i].a, 106.0 + i) << i;
  }
}

TEST(Recorder, LanesEvictIndependentlyAndMergeInEmissionOrder) {
  RecordOptions options;
  options.enabled = true;
  options.ring_depth = 2;
  Recorder rec(options);
  // Sender 0 gets three events (its lane evicts one); sender 1 gets two.
  rec.emit(ev(0, EventClass::kWindow, EventCode::kSample, Subject::kSender, 0));
  rec.emit(ev(0, EventClass::kWindow, EventCode::kSample, Subject::kSender, 1));
  rec.emit(ev(1, EventClass::kWindow, EventCode::kSample, Subject::kSender, 0));
  rec.emit(ev(1, EventClass::kWindow, EventCode::kSample, Subject::kSender, 1));
  rec.emit(ev(2, EventClass::kWindow, EventCode::kSample, Subject::kSender, 0));
  const Recording snap = rec.snapshot();
  EXPECT_EQ(snap.dropped, 1u);
  ASSERT_EQ(snap.events.size(), 4u);
  // Survivors in global emission order: s1@0, s0@1, s1@1, s0@2.
  EXPECT_EQ(snap.events[0].subject, 1);
  EXPECT_EQ(snap.events[0].step, 0);
  EXPECT_EQ(snap.events[1].subject, 0);
  EXPECT_EQ(snap.events[1].step, 1);
  EXPECT_EQ(snap.events[2].subject, 1);
  EXPECT_EQ(snap.events[2].step, 1);
  EXPECT_EQ(snap.events[3].subject, 0);
  EXPECT_EQ(snap.events[3].step, 2);
}

TEST(Recorder, WantsRespectsEnabledFlagAndClassMask) {
  RecordOptions loss_only;
  loss_only.enabled = true;
  loss_only.classes = class_bit(EventClass::kLoss);
  const Recorder rec(loss_only);
  EXPECT_TRUE(rec.wants(EventClass::kLoss));
  EXPECT_FALSE(rec.wants(EventClass::kWindow));
  EXPECT_FALSE(rec.wants(EventClass::kGuard));

  RecordOptions disabled;
  disabled.enabled = false;
  const Recorder off(disabled);
  EXPECT_FALSE(off.wants(EventClass::kLoss));
}

TEST(Recorder, SampleStrideGatesSampledSteps) {
  RecordOptions options;
  options.enabled = true;
  options.sample_stride = 16;
  const Recorder rec(options);
  EXPECT_EQ(rec.stride(), 16);
  EXPECT_TRUE(rec.sample_due(0));
  EXPECT_FALSE(rec.sample_due(5));
  EXPECT_TRUE(rec.sample_due(16));
  EXPECT_FALSE(rec.sample_due(17));
}

// ---------------------------------------------------------------------------
// JSONL wire formats (always compiled, even under AXIOMCC_RECORDER=OFF).

TEST(RecorderIo, RecordingRoundTripsThroughJsonl) {
  Recording r = make_recording(
      64, {ev(0, EventClass::kChurn, EventCode::kJoin, Subject::kCohort, 0,
              8.0),
           ev(16, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1,
              120.5, 2.25),
           ev(20, EventClass::kLoss, EventCode::kOnset, Subject::kRun, -1,
              0.03125),
           ev(24, EventClass::kSchedule, EventCode::kBandwidth, Subject::kRun,
              -1, 0.5, 1.0),
           ev(30, EventClass::kCohort, EventCode::kKernel, Subject::kCohort, 1,
              32.0),
           ev(33, EventClass::kGuard, EventCode::kTrip, Subject::kSender, 3,
              -1.5, 2.0)});
  r.options.ring_depth = 32;
  r.options.sample_stride = 8;
  r.dropped = 3;

  const std::string text = recording_to_jsonl(r);
  const Recording back = parse_recording_jsonl(text);
  EXPECT_EQ(back.version, r.version);
  EXPECT_EQ(back.backend, "fluid");
  EXPECT_EQ(back.senders, 4);
  EXPECT_EQ(back.steps, 64);
  EXPECT_TRUE(back.options.enabled);
  EXPECT_EQ(back.options.classes, r.options.classes);
  EXPECT_EQ(back.options.ring_depth, 32);
  EXPECT_EQ(back.options.sample_stride, 8);
  EXPECT_EQ(back.dropped, 3u);
  ASSERT_EQ(back.events.size(), r.events.size());
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    EXPECT_EQ(back.events[i], r.events[i]) << "event " << i;
  }
  // Deterministic writer: serializing the parse yields identical bytes.
  EXPECT_EQ(recording_to_jsonl(back), text);
}

TEST(RecorderIo, ParserRejectsUnknownSchemaAndEmptyInput) {
  EXPECT_THROW((void)parse_recording_jsonl(""), std::runtime_error);
  EXPECT_THROW(
      (void)parse_recording_jsonl("{\"schema\":\"bogus\",\"version\":1}\n"),
      std::runtime_error);
}

TEST(RecorderIo, PostMortemRoundTripsAndTrimsToLastK) {
  PostMortem pm;
  pm.kind = "divergence";
  pm.title = "scn-0011223344556677";
  pm.divergence = 0.5;
  pm.scenario_text = "axiomcc-scenario v1\nseed 7\n# note \"quoted\"\n";

  PostMortemSide fluid;
  fluid.label = "fluid";
  fluid.recording = make_recording(
      32,
      {ev(0, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1, 10.0),
       ev(1, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1, 11.0),
       ev(2, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1, 12.0),
       ev(3, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1, 13.0),
       ev(4, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1,
          14.0)});

  PostMortemSide packet;
  packet.label = "packet";
  packet.fault_kind = "overload";
  packet.fault_step = 9;
  packet.fault_sender = 2;
  packet.detail = "queue blew\npast cap";
  packet.recording = make_recording(
      10, {ev(8, EventClass::kGuard, EventCode::kCheck, Subject::kRun, -1,
              90.0),
           ev(9, EventClass::kGuard, EventCode::kTrip, Subject::kSender, 2,
              1000.0, 3.0)});
  packet.recording.backend = "packet";

  pm.sides.push_back(std::move(fluid));
  pm.sides.push_back(std::move(packet));

  const std::string text = postmortem_to_jsonl(pm, /*last_k=*/2);
  const PostMortem back = parse_postmortem_jsonl(text);
  EXPECT_EQ(back.kind, "divergence");
  EXPECT_EQ(back.title, pm.title);
  EXPECT_DOUBLE_EQ(back.divergence, 0.5);
  EXPECT_EQ(back.scenario_text, pm.scenario_text);
  ASSERT_EQ(back.sides.size(), 2u);

  // Side 0: clean; five events trimmed to the last two, trim counted as
  // dropped so the aligner's truncation floor stays honest.
  EXPECT_EQ(back.sides[0].label, "fluid");
  EXPECT_EQ(back.sides[0].fault_kind, "");
  EXPECT_EQ(back.sides[0].recording.backend, "fluid");
  ASSERT_EQ(back.sides[0].recording.events.size(), 2u);
  EXPECT_EQ(back.sides[0].recording.events[0].step, 3);
  EXPECT_EQ(back.sides[0].recording.events[1].step, 4);
  EXPECT_EQ(back.sides[0].recording.dropped, 3u);

  // Side 1: fault metadata (including a multi-line detail) survives.
  EXPECT_EQ(back.sides[1].label, "packet");
  EXPECT_EQ(back.sides[1].fault_kind, "overload");
  EXPECT_EQ(back.sides[1].fault_step, 9);
  EXPECT_EQ(back.sides[1].fault_sender, 2);
  EXPECT_EQ(back.sides[1].detail, "queue blew\npast cap");
  ASSERT_EQ(back.sides[1].recording.events.size(), 2u);
  EXPECT_EQ(back.sides[1].recording.events[1].code, EventCode::kTrip);
}

// ---------------------------------------------------------------------------
// Step alignment.

TEST(RecorderAlign, IdenticalRecordingsAlign) {
  const Recording left = make_recording(
      40,
      {ev(0, EventClass::kChurn, EventCode::kJoin, Subject::kCohort, 0, 8.0),
       ev(16, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1,
          120.0, 2.0),
       ev(20, EventClass::kLoss, EventCode::kOnset, Subject::kRun, -1,
          0.01)});
  const AlignResult result = align_recordings(left, left);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(result.first_divergence_step, -1);
  EXPECT_EQ(result.compare_start, 0);
  EXPECT_EQ(result.steps_compared, 40);
  EXPECT_TRUE(result.left_events.empty());
}

TEST(RecorderAlign, DiscreteEventOnOneSideDiverges) {
  const Recording left = make_recording(
      40,
      {ev(0, EventClass::kChurn, EventCode::kJoin, Subject::kCohort, 0, 8.0)});
  Recording right = left;
  right.events.push_back(
      ev(5, EventClass::kLoss, EventCode::kOnset, Subject::kRun, -1, 0.02));
  const AlignResult result = align_recordings(left, right);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_divergence_step, 5);
  EXPECT_EQ(result.trigger, EventClass::kLoss);
  EXPECT_NE(result.reason.find("right has loss/onset"), std::string::npos)
      << result.reason;
  // Context carries the witnessing event on the side that has it.
  ASSERT_FALSE(result.right_events.empty());
  EXPECT_EQ(result.right_events.back().step, 5);
}

TEST(RecorderAlign, SampledValuesCompareByRelativeTolerance) {
  Recording left = make_recording(
      40, {ev(16, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1,
              100.0),
           // Sampled on one side only: not comparable, must not diverge.
           ev(24, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1,
              105.0)});
  Recording right = make_recording(
      40, {ev(16, EventClass::kWindow, EventCode::kTotal, Subject::kRun, -1,
              110.0)});
  EXPECT_FALSE(align_recordings(left, right).diverged);

  right.events[0].a = 200.0;  // gap 0.5 against default tolerance 0.25
  const AlignResult result = align_recordings(left, right);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_divergence_step, 16);
  EXPECT_EQ(result.trigger, EventClass::kWindow);
  EXPECT_NE(result.reason.find("differs"), std::string::npos) << result.reason;

  AlignOptions loose;
  loose.tolerance = 0.6;
  EXPECT_FALSE(align_recordings(left, right, loose).diverged);
}

TEST(RecorderAlign, RunLengthMismatchDivergesAtHorizon) {
  const Recording left = make_recording(
      40,
      {ev(0, EventClass::kChurn, EventCode::kJoin, Subject::kCohort, 0, 8.0)});
  const Recording right = make_recording(
      30,
      {ev(0, EventClass::kChurn, EventCode::kJoin, Subject::kCohort, 0, 8.0)});
  const AlignResult result = align_recordings(left, right);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_divergence_step, 30);
  EXPECT_EQ(result.trigger, EventClass::kChurn);
  EXPECT_NE(result.reason.find("run lengths differ"), std::string::npos)
      << result.reason;
}

TEST(RecorderAlign, RunLengthMismatchNamesGuardWhenShorterSideTripped) {
  // Identical trips on both sides keep the discrete comparison clean; the
  // shorter run's early end is then attributed to its guard trip.
  const Event trip = ev(29, EventClass::kGuard, EventCode::kTrip,
                        Subject::kSender, 1, 1e9, 2.0);
  const Recording left = make_recording(40, {trip});
  const Recording right = make_recording(30, {trip});
  const AlignResult result = align_recordings(left, right);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.first_divergence_step, 30);
  EXPECT_EQ(result.trigger, EventClass::kGuard);
  EXPECT_NE(result.reason.find("guard trip on the shorter side"),
            std::string::npos)
      << result.reason;
}

TEST(RecorderAlign, TruncationFloorExcludesEvictedPrefix) {
  // Left lost its prefix to ring eviction; a right-only event below the
  // floor must not count as a divergence.
  Recording left = make_recording(
      40, {ev(10, EventClass::kLoss, EventCode::kOnset, Subject::kRun, -1,
              0.01)});
  left.dropped = 2;
  const Recording right = make_recording(
      40, {ev(4, EventClass::kLoss, EventCode::kOnset, Subject::kRun, -1,
              0.01),
           ev(10, EventClass::kLoss, EventCode::kOnset, Subject::kRun, -1,
              0.01)});
  const AlignResult result = align_recordings(left, right);
  EXPECT_FALSE(result.diverged) << result.reason;
  EXPECT_EQ(result.compare_start, 10);
  EXPECT_EQ(result.steps_compared, 30);
}

TEST(RecorderAlign, CohortExecutionDetailIsMaskedByDefault) {
  // kCohort describes HOW a side executed (kernel vs uniform), not what the
  // simulated system did: a scalar run and its batch twin must align.
  const Recording left = make_recording(
      40, {ev(0, EventClass::kCohort, EventCode::kKernel, Subject::kCohort, 0,
              32.0)});
  const Recording right = make_recording(
      40, {ev(0, EventClass::kCohort, EventCode::kUniform, Subject::kCohort, 0,
              32.0)});
  const AlignResult result = align_recordings(left, right);
  EXPECT_FALSE(result.diverged) << result.reason;
}


TEST(RecorderEvent, ParseClassMaskNamesAndSeparators) {
  EXPECT_EQ(parse_class_mask("window"), class_bit(EventClass::kWindow));
  EXPECT_EQ(parse_class_mask("window+loss"),
            class_bit(EventClass::kWindow) | class_bit(EventClass::kLoss));
  // ',' and '+' separators are interchangeable (the CLI hands the list over
  // verbatim from --record=dir,classes=...).
  EXPECT_EQ(parse_class_mask("schedule,churn+guard"),
            class_bit(EventClass::kSchedule) | class_bit(EventClass::kChurn) |
                class_bit(EventClass::kGuard));
  EXPECT_EQ(parse_class_mask("all"), kAllClasses);
  EXPECT_EQ(parse_class_mask("cohort,all"), kAllClasses);
}

TEST(RecorderEvent, ParseClassMaskRejectsUnknownAndEmpty) {
  EXPECT_THROW((void)parse_class_mask("windows"), std::invalid_argument);
  EXPECT_THROW((void)parse_class_mask(""), std::invalid_argument);
  EXPECT_THROW((void)parse_class_mask("window,,loss"), std::invalid_argument);
  try {
    (void)parse_class_mask("window+lossy");
    FAIL() << "unknown class should throw";
  } catch (const std::invalid_argument& e) {
    // The message names the offending token and the accepted values.
    EXPECT_NE(std::string(e.what()).find("lossy"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("guard"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace axiomcc::recorder
