// guarded_run.h — runs a simulation under invariant monitors.
//
// A stress sweep multiplies protocols × scenarios × seeds; one pathological
// cell must degrade gracefully instead of killing the whole matrix. The
// guarded runner watches every step for divergence — NaN/Inf or negative
// windows, aggregate-window blowup, unbounded queue growth, a step-budget
// watchdog — and converts the first violation (or any exception thrown by a
// protocol or a contract check) into a structured FaultReport alongside the
// trace recorded up to the fault, rather than aborting.
#pragma once

#include <string>
#include <utility>

#include "engine/backend.h"
#include "fluid/trace.h"
#include "recorder/recorder.h"
#include "util/check.h"

namespace axiomcc::stress {

/// What kind of fault the guard detected.
enum class FaultKind : int {
  kNone = 0,            ///< the run completed cleanly.
  kNonFiniteWindow,     ///< a sender window became NaN or ±Inf.
  kNegativeWindow,      ///< a sender window went below 0.
  kAggregateBlowup,     ///< the aggregate window exceeded its bound.
  kQueueGrowth,         ///< the standing queue exceeded its bound.
  kStepBudget,          ///< the watchdog step budget was exhausted.
  kContractViolation,   ///< a ContractViolation escaped the simulation.
  kException,           ///< any other exception escaped the simulation.
  kNonFiniteScore,      ///< a derived metric score came out NaN/Inf.
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// The structured outcome of a guard trip.
struct FaultReport {
  FaultKind kind = FaultKind::kNone;
  long step = -1;    ///< step at which the fault was detected (-1: n/a).
  int sender = -1;   ///< offending sender, when one is identifiable.
  /// Steps the guard actually watched before the run ended (clean or not);
  /// scorecards read this instead of recomputing it from the trace.
  long steps_observed = 0;
  std::string detail;

  [[nodiscard]] bool ok() const { return kind == FaultKind::kNone; }
};

/// Invariant thresholds. Defaults are far above anything a sane protocol
/// reaches on the standard links but below the simulator's own window cap,
/// so blowups trip the guard before the clamp masks them.
struct GuardConfig {
  double max_window_mss = 1e8;            ///< per-sender window bound.
  double max_aggregate_window_mss = 5e8;  ///< Σ windows bound.
  /// Bound on the standing queue (aggregate window − capacity), in MSS.
  /// Non-positive disables the check (robustness runs use near-infinite
  /// links where "queue" is meaningless).
  double max_queue_mss = 0.0;
  long step_budget = 2'000'000;           ///< watchdog on total steps.
  /// When non-empty and the spec carries a flight-recorder sink, a guard
  /// fault dumps a post-mortem JSONL (`postmortem-<label>.jsonl`) into this
  /// directory: the fault classification plus the last recorded events.
  /// Reproducer text is unknown at this layer — the fuzz runner attaches it
  /// at its own. Empty (the default) disables dumping.
  std::string postmortem_dir;
  /// File-name stem and side title for the dump above.
  std::string postmortem_label = "run";
};

/// A (possibly truncated) trace plus the fault that ended it, if any.
struct GuardedResult {
  fluid::Trace trace;
  FaultReport fault;
  /// Path of the post-mortem dumped for this fault, "" when none was
  /// written (clean run, no recorder attached, or dumping disabled).
  std::string postmortem_path;
};

/// Runs `spec` on `backend` (fluid or packet) under the guard, installed as
/// the spec's step monitor — the spec must not carry its own. Taken by value
/// because the runner owns the monitor it installs. On a clean run,
/// `fault.ok()` and the full trace; on divergence, the trace up to the fault
/// step and a populated report; on an escaping exception, a populated report
/// and an empty stand-in trace with the spec's sender count and link
/// geometry.
[[nodiscard]] GuardedResult run_guarded(const engine::SimBackend& backend,
                                        engine::ScenarioSpec spec,
                                        const GuardConfig& config = {});

/// Invokes `fn` and converts an escaping exception into a FaultReport
/// (kContractViolation or kException); returns kNone when `fn` returns
/// normally. For guarding code that is not a backend run — e.g. one
/// cell of a metric sweep.
template <typename Fn>
[[nodiscard]] FaultReport guard_invoke(Fn&& fn) {
  FaultReport report;
  try {
    std::forward<Fn>(fn)();
  } catch (const ContractViolation& e) {
    report.kind = FaultKind::kContractViolation;
    report.detail = e.what();
  } catch (const std::exception& e) {
    report.kind = FaultKind::kException;
    report.detail = e.what();
  }
  return report;
}

}  // namespace axiomcc::stress
