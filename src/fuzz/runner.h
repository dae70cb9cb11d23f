// runner.h — executes one fuzz scenario on both backends and classifies it.
//
// This is the fuzzer's oracle: a scenario runs once per backend (the packet
// side under a cwnd clamp so its event count stays bounded) under the
// guarded runner's invariant monitors, and each run is reduced to a small
// vector of trace metrics. Three signals come out:
//
//  * faults — any stress::FaultReport a backend trips (non-finite or
//    negative windows, aggregate blowup, contract violations, escaping
//    exceptions), plus kNonFiniteScore when a metric estimator produces
//    NaN/Inf from a clean trace;
//  * divergence — the largest normalized gap between the two backends'
//    tail metrics, the fluid-vs-packet disagreement magnitude the ROADMAP's
//    crosscheck item wants maximized;
//  * a novelty key — the scenario's bucketed position in metric space plus
//    its fault/divergence classification, the coverage signal that drives
//    corpus retention.
//
// run_scenario is a pure function of (spec, config): the backends build
// fresh protocol instances from the slots' specs on every run and the
// const backend API is thread-safe, so the fuzz loop can fan it out over the
// task pool and stay bit-reproducible at any job count.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/scenario_text.h"
#include "recorder/recorder.h"
#include "scope/scope.h"
#include "stress/guarded_run.h"

namespace axiomcc::fuzz {

/// How a scenario run is classified, most interesting first.
enum class OutcomeKind : int {
  kClean = 0,      ///< both backends ran clean and agree within threshold.
  kDivergence,     ///< both clean, but metrics diverge beyond threshold.
  kFluidFault,     ///< the fluid backend tripped the guard.
  kPacketFault,    ///< the packet backend tripped the guard.
  kBothFault,      ///< both backends tripped the guard.
};

[[nodiscard]] const char* outcome_kind_name(OutcomeKind kind);

/// Tail metrics comparable across the two backends (all computed from the
/// common Trace by the src/core estimators).
struct TraceMetrics {
  double efficiency = 0.0;
  double mean_loss = 0.0;
  double fairness = 0.0;
  double convergence = 0.0;
  double latency = 0.0;  ///< RTT-inflation bound (Metric VIII).
  long steps = 0;        ///< steps the guard observed.
};

/// Everything one dual-backend execution produced.
struct RunOutcome {
  OutcomeKind kind = OutcomeKind::kClean;
  stress::FaultReport fluid_fault;
  stress::FaultReport packet_fault;
  TraceMetrics fluid;
  TraceMetrics packet;
  /// Max normalized metric gap (0 when either side faulted — a fault is a
  /// stronger signal than any disagreement).
  double divergence = 0.0;
  /// Bucketed position in metric space + outcome classification; equal keys
  /// mean "nothing new here" to the corpus.
  std::uint64_t novelty_key = 0;
  /// Where the finding's post-mortem JSONL landed; "" when none was dumped
  /// (clean run or no `postmortem_dir`).
  std::string postmortem_path;

  [[nodiscard]] bool is_finding() const { return kind != OutcomeKind::kClean; }
};

struct RunnerConfig {
  /// Invariant thresholds for both guarded runs.
  stress::GuardConfig guard;
  /// Divergence above this is a finding (tuned so the crosscheck's known
  /// benign score offsets stay below it; see docs/fuzzing.md).
  double divergence_threshold = 0.35;
  /// Packet-side cwnd clamp (the fluid side happily runs 1e9-MSS windows;
  /// packet event counts are proportional to real packets).
  double packet_max_window_mss = 2000.0;
  /// Flight-recorder capture options for both backends. Capture runs when
  /// `record.enabled` is set OR `postmortem_dir` is non-empty (the dump
  /// needs a timeline to dump); otherwise the runner attaches no recorder
  /// and costs exactly what it did before the recorder existed.
  recorder::RecordOptions record;
  /// Streaming metric-scope options for both backends. When `scope.enabled`
  /// each guarded run carries a MetricScope; with capture on, the closed
  /// windows land in the recordings as kMetric events, so `--align` can
  /// localize the first divergent metric window alongside the raw lanes.
  scope::ScopeConfig scope;
  /// When non-empty, every finding (fault or divergence) dumps a
  /// schema-versioned post-mortem — the byte-exact `.scn` reproducer plus
  /// the last recorded events from each backend — into this directory as
  /// `postmortem-scn-<hash>.jsonl`, mirroring the corpus file name.
  std::string postmortem_dir;
};

/// `spec` as the oracle runs it on each backend: an aggregate trace tracks
/// the whole expanded population, so the estimators read every sender's
/// series and classify exactly as they would a full trace; a last-step
/// trace runs as a full one.
[[nodiscard]] engine::ScenarioSpec oracle_spec(engine::ScenarioSpec spec);

/// Runs `spec` on both backends and classifies the outcome. A spec the
/// engine rejects (engine::validate_scenario, an empty workload expansion)
/// is classified as an exception fault on both sides, and simulation faults
/// are captured in the outcome. Throws only on a link the guarded runner
/// cannot size its invariants from (non-positive bandwidth or delay), which
/// check_readable rules out.
[[nodiscard]] RunOutcome run_scenario(const engine::ScenarioSpec& spec,
                                      const RunnerConfig& config = {});

/// A dual-backend run plus both captured timelines (empty when capture was
/// off). `axiomcc-inspect --align` uses
/// this to re-execute a reproducer and step-align the two backends.
struct RecordedScenario {
  RunOutcome outcome;
  recorder::Recording fluid;
  recorder::Recording packet;
};

/// `run_scenario` with the recordings kept. Identical classification; the
/// outcome of the two entry points is the same for the same (spec, config).
[[nodiscard]] RecordedScenario run_scenario_recorded(
    const engine::ScenarioSpec& spec, const RunnerConfig& config = {});

/// The expectation a triaged corpus entry should carry for `outcome`.
[[nodiscard]] ExpectDesc expect_for(const RunOutcome& outcome);

/// Whether `outcome` reproduces `expect`: outcome kinds must match, and a
/// non-empty expect detail must match the faulting side's fault kind.
/// An empty expect matches nothing (untriaged entries never "pass").
[[nodiscard]] bool matches_expect(const RunOutcome& outcome,
                                  const ExpectDesc& expect);

}  // namespace axiomcc::fuzz
