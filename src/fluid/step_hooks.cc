#include "fluid/step_hooks.h"

#include "util/check.h"

namespace axiomcc::fluid {

std::span<const FluidLink> detail::ScheduledLink::scaled(long step) {
  double bw_scale = 1.0;
  double rtt_scale = 1.0;
  if (!bw_.empty()) {
    bw_scale = bw_.at(step);
    AXIOMCC_EXPECTS_MSG(bw_scale > 0.0, "bandwidth scale must be positive");
  }
  if (!rtt_.empty()) {
    rtt_scale = rtt_.at(step);
    AXIOMCC_EXPECTS_MSG(rtt_scale > 0.0, "RTT scale must be positive");
  }
  if (!cached_ || bw_scale != last_bw_ || rtt_scale != last_rtt_) {
    scaled_.clear();
    for (const FluidLink& link : base_) {
      LinkParams params = link.params();
      if (!bw_.empty()) {
        params.bandwidth = Bandwidth::from_mss_per_sec(
            params.bandwidth.mss_per_sec() * bw_scale);
      }
      if (!rtt_.empty()) {
        params.propagation_delay = params.propagation_delay * rtt_scale;
      }
      scaled_.emplace_back(params);
    }
    cached_ = true;
    last_bw_ = bw_scale;
    last_rtt_ = rtt_scale;
  }
  return scaled_;
}

StepRecorder::StepRecorder(recorder::Recorder* sink, const char* backend,
                           std::vector<Cohort> cohorts, const Schedule& bw,
                           const Schedule& rtt, bool aggregate,
                           long total_senders)
    : sink_(sink), bw_(&bw), rtt_(&rtt), aggregate_(aggregate) {
  if (sink_ == nullptr) return;
  sink_->set_backend(backend);
  sink_->set_senders(total_senders);
  cohorts_ = std::move(cohorts);
  churn_active_.assign(cohorts_.size(), 0);
  injected_visible_.assign(cohorts_.size(), 0);
}

void StepRecorder::record(long step, double total, double rtt_value,
                          double congestion_loss,
                          std::span<const double> windows,
                          std::span<const double> observed) {
  using recorder::EventClass;
  using recorder::EventCode;
  using recorder::Subject;
  sink_->note_step(step);

  const auto active_at = [step](const Cohort& c) {
    return step >= c.start_step && (c.stop_step < 0 || step < c.stop_step);
  };

  if (sink_->wants(EventClass::kChurn)) {
    for (std::size_t ci = 0; ci < cohorts_.size(); ++ci) {
      const bool active = active_at(cohorts_[ci]);
      if (active != static_cast<bool>(churn_active_[ci])) {
        sink_->emit({step, EventClass::kChurn,
                     active ? EventCode::kJoin : EventCode::kLeave,
                     Subject::kCohort, static_cast<int>(ci),
                     static_cast<double>(cohorts_[ci].count), 0.0});
        churn_active_[ci] = active ? 1 : 0;
      }
    }
  }

  if (sink_->wants(EventClass::kSchedule)) {
    if (!bw_->empty()) {
      const double scale = bw_->at(step);
      if (scale != last_bw_scale_) {
        sink_->emit({step, EventClass::kSchedule, EventCode::kBandwidth,
                     Subject::kRun, -1, scale, last_bw_scale_});
        last_bw_scale_ = scale;
      }
    }
    if (!rtt_->empty()) {
      const double scale = rtt_->at(step);
      if (scale != last_rtt_scale_) {
        sink_->emit({step, EventClass::kSchedule, EventCode::kRtt,
                     Subject::kRun, -1, scale, last_rtt_scale_});
        last_rtt_scale_ = scale;
      }
    }
  }

  if (sink_->wants(EventClass::kLoss)) {
    const bool lossy = congestion_loss > 0.0;
    if (lossy != loss_active_) {
      sink_->emit({step, EventClass::kLoss,
                   lossy ? EventCode::kOnset : EventCode::kClear,
                   Subject::kRun, -1, lossy ? congestion_loss : last_loss_,
                   0.0});
      loss_active_ = lossy;
    }
    if (lossy) last_loss_ = congestion_loss;
    // Injected (non-congestion) loss becoming visible to a cohort:
    // combine_loss is strictly increasing in the injected component, so
    // observed > congestion exactly when the injector contributed. On a
    // multi-hop route a flow's composed congestion loss can exceed the
    // recorded (max-link) rate — good enough for timeline triage. No
    // `observed` (the packet monitor) means no per-cohort injected lane.
    for (std::size_t ci = 0; !observed.empty() && ci < cohorts_.size();
         ++ci) {
      const bool active = active_at(cohorts_[ci]);
      const double obs =
          active ? observed[static_cast<std::size_t>(cohorts_[ci].slot)]
                 : 0.0;
      const bool visible = active && obs > congestion_loss;
      if (visible != static_cast<bool>(injected_visible_[ci])) {
        sink_->emit({step, EventClass::kLoss,
                     visible ? EventCode::kInjected : EventCode::kClear,
                     Subject::kCohort, static_cast<int>(ci), obs,
                     congestion_loss});
        injected_visible_[ci] = visible ? 1 : 0;
      }
    }
  }

  if (sink_->wants(EventClass::kWindow) && sink_->sample_due(step)) {
    sink_->emit({step, EventClass::kWindow, EventCode::kTotal, Subject::kRun,
                 -1, total, rtt_value});
    if (aggregate_) {
      for (std::size_t ci = 0; ci < cohorts_.size(); ++ci) {
        if (!active_at(cohorts_[ci])) continue;
        const double w = windows[static_cast<std::size_t>(cohorts_[ci].slot)];
        if (w > 0.0) {
          sink_->emit({step, EventClass::kWindow, EventCode::kSample,
                       Subject::kCohort, static_cast<int>(ci), w, 0.0});
        }
      }
    } else {
      for (std::size_t i = 0; i < windows.size(); ++i) {
        if (windows[i] > 0.0) {
          sink_->emit({step, EventClass::kWindow, EventCode::kSample,
                       Subject::kSender, static_cast<int>(i), windows[i],
                       0.0});
        }
      }
    }
  }
}

}  // namespace axiomcc::fluid
