#include "stress/guarded_run.h"

#include <cmath>
#include <sstream>

#include "engine/topology.h"
#include "engine/workload.h"
#include "recorder/postmortem.h"
#include "telemetry/telemetry.h"

namespace axiomcc::stress {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "ok";
    case FaultKind::kNonFiniteWindow: return "non_finite_window";
    case FaultKind::kNegativeWindow: return "negative_window";
    case FaultKind::kAggregateBlowup: return "aggregate_blowup";
    case FaultKind::kQueueGrowth: return "queue_growth";
    case FaultKind::kStepBudget: return "step_budget";
    case FaultKind::kContractViolation: return "contract_violation";
    case FaultKind::kException: return "exception";
    case FaultKind::kNonFiniteScore: return "non_finite_score";
  }
  return "unknown";
}

namespace {

/// The guard's step monitor: watches every step for invariant violations and
/// records the first one in `fault` (which must outlive the run). Shared by
/// the fluid-specific and the backend-generic runners — the monitor shape is
/// identical on both sides of the engine. When `sink` is non-null the
/// monitor also narrates itself into the flight recorder: a sampled kCheck
/// on the run lane (a = aggregate window) and a kTrip on the offending
/// sender's lane (a = offending value, b = FaultKind) the moment it fires.
engine::StepMonitor make_guard_monitor(FaultReport& fault,
                                       const GuardConfig& config,
                                       double capacity,
                                       recorder::Recorder* sink) {
  return [&fault, config, capacity, sink](long step,
                                          std::span<const double> windows,
                                          double /*rtt_seconds*/,
                                          double /*congestion_loss*/) {
    ++fault.steps_observed;
    const bool record = sink != nullptr &&
                        sink->wants(recorder::EventClass::kGuard);
    const auto trip = [&](FaultKind kind, int sender, double value,
                          const std::string& why) {
      fault.kind = kind;
      fault.step = step;
      fault.sender = sender;
      fault.detail = why;
      TELEMETRY_COUNT("stress.invariant_trips", 1);
      if (record) {
        recorder::Event ev;
        ev.step = step;
        ev.cls = recorder::EventClass::kGuard;
        ev.code = recorder::EventCode::kTrip;
        ev.subject_kind = sender >= 0 ? recorder::Subject::kSender
                                      : recorder::Subject::kRun;
        ev.subject = sender;
        ev.a = value;
        ev.b = static_cast<double>(kind);
        sink->emit(ev);
      }
      return false;  // stop the run
    };

    if (step >= config.step_budget) {
      return trip(FaultKind::kStepBudget, -1, static_cast<double>(step),
                  "step budget " + std::to_string(config.step_budget) +
                      " exhausted");
    }

    double total = 0.0;
    for (int i = 0; i < static_cast<int>(windows.size()); ++i) {
      const double w = windows[i];
      if (!std::isfinite(w)) {
        std::ostringstream os;
        os << "window of sender " << i << " is " << w;
        return trip(FaultKind::kNonFiniteWindow, i, w, os.str());
      }
      if (w < 0.0) {
        std::ostringstream os;
        os << "window of sender " << i << " is " << w;
        return trip(FaultKind::kNegativeWindow, i, w, os.str());
      }
      if (w > config.max_window_mss) {
        std::ostringstream os;
        os << "window of sender " << i << " is " << w << " > bound "
           << config.max_window_mss;
        return trip(FaultKind::kAggregateBlowup, i, w, os.str());
      }
      total += w;
    }
    if (total > config.max_aggregate_window_mss) {
      std::ostringstream os;
      os << "aggregate window " << total << " > bound "
         << config.max_aggregate_window_mss;
      return trip(FaultKind::kAggregateBlowup, -1, total, os.str());
    }
    if (config.max_queue_mss > 0.0 && total - capacity > config.max_queue_mss) {
      std::ostringstream os;
      os << "standing queue " << (total - capacity) << " MSS > bound "
         << config.max_queue_mss;
      return trip(FaultKind::kQueueGrowth, -1, total - capacity, os.str());
    }
    if (record && sink->sample_due(step)) {
      recorder::Event ev;
      ev.step = step;
      ev.cls = recorder::EventClass::kGuard;
      ev.code = recorder::EventCode::kCheck;
      ev.a = total;
      sink->emit(ev);
    }
    return true;
  };
}

/// Dumps a fault post-mortem next to the other artifacts when the config
/// asks for one and the spec carried a recorder. Dump failure (an I/O
/// error) is swallowed — the guard's contract is to report the simulation
/// fault, not to trade it for a filesystem one.
std::string maybe_dump_postmortem(recorder::Recorder* sink,
                                  const GuardConfig& config,
                                  const FaultReport& fault) {
  if (fault.ok() || config.postmortem_dir.empty() || sink == nullptr ||
      !recorder::compiled_in()) {
    return {};
  }
  recorder::PostMortem pm;
  pm.kind = "fault";
  pm.title = config.postmortem_label;
  recorder::PostMortemSide side;
  side.recording = sink->snapshot();
  side.label =
      side.recording.backend.empty() ? "run" : side.recording.backend;
  side.fault_kind = fault_kind_name(fault.kind);
  side.fault_step = fault.step;
  side.fault_sender = fault.sender;
  side.detail = fault.detail;
  pm.sides.push_back(std::move(side));
  try {
    return recorder::write_postmortem(config.postmortem_dir,
                                      config.postmortem_label, pm);
  } catch (const std::exception&) {
    TELEMETRY_COUNT("stress.postmortem_write_failures", 1);
    return {};
  }
}

void check_guard_config(const GuardConfig& config) {
  AXIOMCC_EXPECTS(config.max_window_mss > 0.0);
  AXIOMCC_EXPECTS(config.max_aggregate_window_mss >= config.max_window_mss);
  AXIOMCC_EXPECTS(config.step_budget > 0);
}

}  // namespace

GuardedResult run_guarded(const engine::SimBackend& backend,
                          engine::ScenarioSpec spec,
                          const GuardConfig& config) {
  check_guard_config(config);
  AXIOMCC_EXPECTS_MSG(spec.step_monitor == nullptr,
                      "the guard owns the spec's step monitor");

  FaultReport fault;
  // Topology-aware capacity: the binding (minimum) link capacity, the same
  // convention the routed substrates use for their traces. Sizing builds
  // the links, so it runs inside the try below: a link the backend would
  // reject faults here exactly as it would in the backend. The fallback
  // trace keeps 0 for what could not be sized.
  double capacity_mss = 0.0;
  double min_rtt_s = 0.0;

  // The exception-fallback trace must match the sender population the
  // backend would have produced (workloads expand the slot list).
  long n = 0;
  if (spec.workload.empty()) {
    n = spec.total_senders();
  } else {
    try {
      for (const engine::SenderSlot& s : engine::expand_workload(spec)) {
        n += s.count;
      }
    } catch (const std::exception&) {
      n = spec.total_senders();
    }
  }
  if (n <= 0) n = 1;
  TELEMETRY_SPAN("stress", "guarded_run");
  TELEMETRY_COUNT("stress.guard_runs", 1);
  try {
    capacity_mss = engine::scenario_capacity_mss(spec);
    min_rtt_s = engine::scenario_min_rtt_seconds(spec);
    spec.step_monitor =
        make_guard_monitor(fault, config, capacity_mss, spec.record_sink);
    engine::RunTrace rt = backend.run(spec);
    TELEMETRY_COUNT("stress.guard_steps", fault.steps_observed);
    std::string pm = maybe_dump_postmortem(spec.record_sink, config, fault);
    return GuardedResult{std::move(rt.trace), std::move(fault), std::move(pm)};
  } catch (const ContractViolation& e) {
    fault.kind = FaultKind::kContractViolation;
    fault.detail = e.what();
  } catch (const std::exception& e) {
    fault.kind = FaultKind::kException;
    fault.detail = e.what();
  }
  TELEMETRY_COUNT("stress.guard_exceptions", 1);
  TELEMETRY_COUNT("stress.guard_steps", fault.steps_observed);
  std::string pm = maybe_dump_postmortem(spec.record_sink, config, fault);
  return GuardedResult{
      fluid::Trace(static_cast<int>(n), capacity_mss, min_rtt_s),
      std::move(fault), std::move(pm)};
}

}  // namespace axiomcc::stress
