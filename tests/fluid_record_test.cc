// Flight-recorder equivalence tests for the fluid engine's cohort tick
// loop. The determinism contract the trace tests pin extends to
// recordings: the materialized and uniform cohort layouts differ only in
// the kCohort execution-mode metadata the aligner masks by default.
#include "fluid/sim.h"

#include <memory>
#include <span>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "recorder/align.h"
#include "recorder/io.h"
#include "recorder/recorder.h"

namespace axiomcc::fluid {
namespace {

using recorder::EventClass;
using recorder::EventCode;
using recorder::Recording;

/// A scenario that exercises every event class: three AIMD cohorts (one
/// joining late, one leaving early), a mid-run bandwidth drop, and a
/// buffer small enough that congestion loss actually occurs.
/// `materialized` installs a pass-through step monitor, which makes the
/// simulation store every member even where uniform representatives would
/// do.
Recording record_scenario(bool materialized, TraceDetail detail,
                          recorder::RecordOptions ropts) {
  ropts.enabled = true;
  recorder::Recorder sink(ropts);

  SimOptions options;
  options.steps = 96;
  options.trace_detail = detail;
  options.record_sink = &sink;
  FluidSimulation sim(make_link_mbps(24.0, 40.0, 30.0), options);

  const auto cohort = [](long start, long stop) {
    SenderSpec spec;
    spec.protocol = cc::make_protocol("aimd(1,0.5)");
    spec.initial_window_mss = 2.0;
    spec.start_step = start;
    spec.stop_step = stop;
    return spec;
  };
  sim.add_senders(cohort(0, -1), 16);
  sim.add_senders(cohort(10, -1), 8);
  sim.add_senders(cohort(0, 60), 8);
  sim.set_bandwidth_schedule(Schedule{{{48, 0.5}}});
  if (materialized) {
    sim.set_step_monitor(
        [](long, std::span<const double>, double, double) { return true; });
  }

  (void)sim.run();
  return sink.snapshot();
}

bool has_code(const Recording& rec, EventCode code) {
  for (const auto& e : rec.events) {
    if (e.code == code) return true;
  }
  return false;
}

TEST(FluidRecord, MaterializedAndUniformRecordIdenticallyModuloCohortMetadata) {
  // With the execution-mode class captured, each layout stamps its own
  // setup events: kernel cohorts when materialized, uniform otherwise...
  const Recording materialized =
      record_scenario(true, TraceDetail::kAggregate, {});
  const Recording uniform =
      record_scenario(false, TraceDetail::kAggregate, {});
  EXPECT_TRUE(has_code(materialized, EventCode::kKernel));
  EXPECT_FALSE(has_code(materialized, EventCode::kFallback))
      << "aimd has a batch kernel";
  EXPECT_FALSE(has_code(materialized, EventCode::kUniform));
  EXPECT_TRUE(has_code(uniform, EventCode::kUniform));
  EXPECT_FALSE(has_code(uniform, EventCode::kKernel));
  // ...so the aligner (which masks kCohort by default) still reports them
  // as the same run...
  const recorder::AlignResult aligned =
      recorder::align_recordings(materialized, uniform);
  EXPECT_FALSE(aligned.diverged) << aligned.reason;
  EXPECT_EQ(aligned.steps_compared, 96);

  // ...and with kCohort excluded at capture time the two layouts are
  // byte-identical on the wire.
  recorder::RecordOptions masked;
  masked.classes = recorder::kAllClasses & ~class_bit(EventClass::kCohort);
  const Recording materialized_masked =
      record_scenario(true, TraceDetail::kAggregate, masked);
  const Recording uniform_masked =
      record_scenario(false, TraceDetail::kAggregate, masked);
  ASSERT_FALSE(materialized_masked.empty());
  EXPECT_EQ(recording_to_jsonl(materialized_masked),
            recording_to_jsonl(uniform_masked));
}

TEST(FluidRecord, AggregateModeKeepsLanesBoundedAcrossLayouts) {
  // Aggregate trace detail drives cohort-lane window samples (memory
  // independent of the population) in either layout; full detail samples
  // every sender.
  for (const bool materialized : {true, false}) {
    for (const auto& e :
         record_scenario(materialized, TraceDetail::kAggregate, {})
             .events) {
      EXPECT_NE(e.subject_kind, recorder::Subject::kSender)
          << "aggregate mode must not materialize per-sender lanes";
    }
  }
  bool sender_lane = false;
  for (const auto& e :
       record_scenario(false, TraceDetail::kFull, {}).events) {
    sender_lane |= e.subject_kind == recorder::Subject::kSender;
  }
  EXPECT_TRUE(sender_lane);
}

TEST(FluidRecord, ChurnScheduleAndLossTransitionsLandAtTheirSteps) {
  const Recording rec = record_scenario(false, TraceDetail::kFull, {});
  EXPECT_EQ(rec.backend, "fluid");
  EXPECT_EQ(rec.senders, 32);
  EXPECT_EQ(rec.steps, 96);

  bool join_at_10 = false, leave_at_60 = false, bw_at_48 = false,
       loss_onset = false, total_sampled = false;
  for (const auto& e : rec.events) {
    if (e.cls == EventClass::kChurn && e.code == EventCode::kJoin &&
        e.step == 10 && e.subject == 1) {
      join_at_10 = true;
      EXPECT_DOUBLE_EQ(e.a, 8.0);  // cohort member count
    }
    if (e.cls == EventClass::kChurn && e.code == EventCode::kLeave &&
        e.step == 60 && e.subject == 2) {
      leave_at_60 = true;
    }
    if (e.cls == EventClass::kSchedule && e.code == EventCode::kBandwidth &&
        e.step == 48) {
      bw_at_48 = true;
      EXPECT_DOUBLE_EQ(e.a, 0.5);
      EXPECT_DOUBLE_EQ(e.b, 1.0);
    }
    loss_onset |= e.cls == EventClass::kLoss && e.code == EventCode::kOnset;
    total_sampled |=
        e.cls == EventClass::kWindow && e.code == EventCode::kTotal;
  }
  EXPECT_TRUE(join_at_10);
  EXPECT_TRUE(leave_at_60);
  EXPECT_TRUE(bw_at_48);
  EXPECT_TRUE(loss_onset) << "30-MSS buffer under 32 AIMD senders must drop";
  EXPECT_TRUE(total_sampled);
}

}  // namespace
}  // namespace axiomcc::fluid
