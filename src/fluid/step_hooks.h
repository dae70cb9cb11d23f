// step_hooks.h — per-step hooks of the simulation loops.
//  - fluid::StepRecorder narrates a run into the flight recorder. Every
//    backend uses it: FluidSimulation's tick and routed loops and the packet
//    backend's step monitor, so each event is written in one place and the
//    backends' recordings step-align.
//  - fluid::detail::ScheduledLink is the fluid loops' scheduled link set
//    (internal to src/fluid).
// The common no-schedule / no-recorder case is an inline check; the work
// lives in step_hooks.cc.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "fluid/link.h"
#include "fluid/schedule.h"
#include "recorder/recorder.h"

namespace axiomcc::fluid {
namespace detail {

/// The active links under (possibly empty) network-wide bandwidth/RTT
/// schedules: every link's bandwidth (delay) is scaled by the same factor.
/// The scaled set is a pure function of the (bandwidth, RTT) scale pair, so
/// it is rebuilt only when the pair changes — piecewise-constant schedules
/// (the common gauntlet case) stop paying a rebuild per tick. Scale
/// validation still runs every step, preserving the original error
/// behaviour.
class ScheduledLink {
 public:
  /// `base` (the configured links) must outlive this object.
  ScheduledLink(std::span<const FluidLink> base, const Schedule& bw,
                const Schedule& rtt)
      : base_(base), bw_(bw), rtt_(rtt) {}

  std::span<const FluidLink> at(long step) {
    return bw_.empty() && rtt_.empty() ? base_ : scaled(step);
  }

 private:
  std::span<const FluidLink> scaled(long step);

  std::span<const FluidLink> base_;
  const Schedule& bw_;
  const Schedule& rtt_;
  std::vector<FluidLink> scaled_;
  double last_bw_ = 1.0;
  double last_rtt_ = 1.0;
  bool cached_ = false;
};

}  // namespace detail

/// Flight-recorder emission. Everything is derived from the cohort specs,
/// the schedules, and the per-step values the trace records — never from
/// execution state such as the storage layout — so a scenario yields
/// byte-identical recordings however it executes, and on whichever backend.
class StepRecorder {
 public:
  /// One recorder lane: `count` senders active on [start_step, stop_step)
  /// (negative stop → forever) whose representative window and observed
  /// loss sit at index `slot` of the per-step arrays. A routed flow is a
  /// count-1 cohort.
  struct Cohort {
    long start_step;
    long stop_step;
    long count;
    long slot;
  };

  /// `backend` names the run in the recording header ("fluid",
  /// "packet"). `bw` and `rtt` must outlive this object.
  StepRecorder(recorder::Recorder* sink, const char* backend,
               std::vector<Cohort> cohorts, const Schedule& bw,
               const Schedule& rtt, bool aggregate, long total_senders);

  /// Execution decision (kernel / fallback / uniform), one setup event per
  /// cohort. The aligner masks this class by default — execution mode is
  /// metadata, not simulated behaviour.
  void cohort_mode(std::size_t cohort, recorder::EventCode mode) {
    if (sink_ == nullptr || !sink_->wants(recorder::EventClass::kCohort)) {
      return;
    }
    sink_->emit({0, recorder::EventClass::kCohort, mode,
                 recorder::Subject::kCohort, static_cast<int>(cohort),
                 static_cast<double>(cohorts_[cohort].count), 0.0});
  }

  /// Called once per step at the trace-record point, with the values the
  /// trace sees (pre-update windows). In full detail `windows` holds every
  /// sender's window, indexed by sender id. `observed` holds each slot's
  /// observed loss; an empty span (a backend that cannot see per-flow
  /// injected loss) skips the per-cohort kInjected lane.
  void on_step(long step, double total, double rtt_value,
               double congestion_loss, std::span<const double> windows,
               std::span<const double> observed) {
    if (sink_ != nullptr) {
      record(step, total, rtt_value, congestion_loss, windows, observed);
    }
  }

 private:
  void record(long step, double total, double rtt_value,
              double congestion_loss, std::span<const double> windows,
              std::span<const double> observed);

  recorder::Recorder* sink_;
  const Schedule* bw_;
  const Schedule* rtt_;
  bool aggregate_;
  std::vector<Cohort> cohorts_;
  std::vector<char> churn_active_;
  std::vector<char> injected_visible_;
  double last_bw_scale_ = 1.0;
  double last_rtt_scale_ = 1.0;
  bool loss_active_ = false;
  double last_loss_ = 0.0;
};

}  // namespace axiomcc::fluid
