#include "fuzz/runner.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "core/metrics.h"
#include "engine/backend.h"
#include "engine/workload.h"
#include "fuzz/fuzzer.h"
#include "recorder/postmortem.h"
#include "telemetry/telemetry.h"

namespace axiomcc::fuzz {

namespace {

/// Metrics from a guarded trace. A trace too short for the tail estimators
/// (a fault in the first steps) yields all-zero metrics; a clean run whose
/// estimators produce NaN/Inf upgrades the fault to kNonFiniteScore.
TraceMetrics reduce_trace(const stress::GuardedResult& result,
                          double tail_fraction,
                          stress::FaultReport& fault) {
  TraceMetrics out;
  out.steps = result.fault.steps_observed;
  if (result.trace.num_steps() < 4) return out;

  core::EstimatorConfig cfg;
  cfg.tail_fraction = tail_fraction;
  const stress::FaultReport metric_fault = stress::guard_invoke([&] {
    out.efficiency = core::measure_efficiency(result.trace, cfg);
    out.mean_loss = core::measure_mean_loss(result.trace, cfg);
    out.fairness = core::measure_fairness(result.trace, cfg);
    out.convergence = core::measure_convergence(result.trace, cfg);
    out.latency = core::measure_latency_avoidance(result.trace, cfg);
  });
  if (!metric_fault.ok()) {
    if (fault.ok()) fault = metric_fault;
    return TraceMetrics{0.0, 0.0, 0.0, 0.0, 0.0, out.steps};
  }
  const bool finite =
      std::isfinite(out.efficiency) && std::isfinite(out.mean_loss) &&
      std::isfinite(out.fairness) && std::isfinite(out.convergence) &&
      std::isfinite(out.latency);
  if (!finite && fault.ok()) {
    fault.kind = stress::FaultKind::kNonFiniteScore;
    fault.detail = "trace metric came out NaN/Inf";
  }
  return out;
}

/// Largest normalized gap between the backends' tail metrics. The unit
/// metrics (efficiency, fairness, convergence, loss rate) compare by
/// absolute difference; the unbounded RTT-inflation bound is normalized by
/// the larger side so a 4x-vs-8x inflation counts like 0.5, not 4.
double metric_divergence(const TraceMetrics& f, const TraceMetrics& p) {
  double d = 0.0;
  d = std::max(d, std::abs(f.efficiency - p.efficiency));
  d = std::max(d, std::abs(f.mean_loss - p.mean_loss));
  d = std::max(d, std::abs(f.fairness - p.fairness));
  d = std::max(d, std::abs(f.convergence - p.convergence));
  d = std::max(d, std::abs(f.latency - p.latency) /
                      std::max({1.0, f.latency, p.latency}));
  return d;
}

/// Bucket for a [0, 1] metric: 0..9.
std::uint64_t unit_bucket(double v) {
  const double clamped = std::clamp(v, 0.0, 1.0);
  return std::min<std::uint64_t>(9, static_cast<std::uint64_t>(clamped * 10.0));
}

/// Log-spaced bucket for a non-negative, possibly unbounded metric: 0 below
/// `floor`, then one bucket per decade, capped at 9.
std::uint64_t log_bucket(double v, double floor) {
  if (!(v > floor)) return 0;
  const double decades = std::log10(v / floor);
  return std::min<std::uint64_t>(
      9, 1 + static_cast<std::uint64_t>(std::max(0.0, decades)));
}

std::uint64_t novelty_key_for(const RunOutcome& o,
                              const engine::ScenarioSpec& spec) {
  std::uint64_t key = 0;
  const auto push = [&key](std::uint64_t value, unsigned bits) {
    key = (key << bits) | value;
  };
  push(static_cast<std::uint64_t>(o.kind), 3);
  push(static_cast<std::uint64_t>(o.fluid_fault.kind), 4);
  push(static_cast<std::uint64_t>(o.packet_fault.kind), 4);
  // The scenario's position in the paper's metric space, one axis at a time
  // (the three remaining axioms — fast-utilization, robustness, and
  // TCP-friendliness — are properties of a protocol under a prescribed
  // probe scenario, not of an arbitrary trace, so the signature uses the
  // five trace-measurable dimensions per backend).
  push(unit_bucket(o.fluid.efficiency), 4);
  push(unit_bucket(o.fluid.fairness), 4);
  push(unit_bucket(o.fluid.convergence), 4);
  push(log_bucket(o.fluid.mean_loss, 1e-4), 4);
  push(log_bucket(o.fluid.latency, 1e-2), 4);
  push(unit_bucket(o.packet.efficiency), 4);
  push(log_bucket(o.packet.mean_loss, 1e-4), 4);
  // Disagreement magnitude in quarter-steps, capped at 2.0+.
  push(std::min<std::uint64_t>(
           15, static_cast<std::uint64_t>(std::max(0.0, o.divergence) * 4.0)),
       4);
  push(std::min<std::uint64_t>(
           3, static_cast<std::uint64_t>(spec.total_senders()) - 1),
       2);
  push(static_cast<std::uint64_t>(spec.loss.kind), 3);
  // The execution axis: a scenario that reproduces under aggregate
  // retention is novel relative to its full-trace twin, so the corpus keeps
  // both and the fuzzer keeps dragging that machinery through the scenario
  // space.
  push(spec.trace_detail == fluid::TraceDetail::kAggregate ? 1 : 0, 1);
  // The topology/workload axes: the same metric signature reached through a
  // parking lot or a generated flow pattern is a different corner of the
  // backend stack than its single-link static twin.
  push(std::min<std::uint64_t>(
           3, static_cast<std::uint64_t>(spec.topology.num_links())),
       2);
  push(static_cast<std::uint64_t>(spec.workload.kind), 2);
  return key;
}

}  // namespace

const char* outcome_kind_name(OutcomeKind kind) {
  switch (kind) {
    case OutcomeKind::kClean: return "clean";
    case OutcomeKind::kDivergence: return "divergence";
    case OutcomeKind::kFluidFault: return "fluid-fault";
    case OutcomeKind::kPacketFault: return "packet-fault";
    case OutcomeKind::kBothFault: return "both-fault";
  }
  return "clean";
}

engine::ScenarioSpec oracle_spec(engine::ScenarioSpec spec) {
  // The trace oracles read the whole run (reduce_trace needs 4 steps); a
  // last-step trace holds one, so the oracle runs it at full detail.
  if (spec.trace_detail == fluid::TraceDetail::kLast) {
    spec.trace_detail = fluid::TraceDetail::kFull;
  }
  if (spec.trace_detail != fluid::TraceDetail::kAggregate) return spec;
  // Workload generators change the run's population; track the expanded
  // count. A workload the engine rejects faults before any trace exists.
  long total = 0;
  try {
    for (const engine::SenderSlot& slot : engine::expand_workload(spec)) {
      total += slot.count;
    }
  } catch (const std::exception&) {
    total = spec.total_senders();
  }
  spec.tracked_senders = static_cast<int>(std::max<long>(total, 1));
  return spec;
}

RunOutcome run_scenario(const engine::ScenarioSpec& spec,
                        const RunnerConfig& config) {
  return run_scenario_recorded(spec, config).outcome;
}

RecordedScenario run_scenario_recorded(const engine::ScenarioSpec& spec,
                                       const RunnerConfig& config) {
  TELEMETRY_COUNT("fuzz.runs", 1);

  RecordedScenario rs;
  RunOutcome& out = rs.outcome;

  // A post-mortem needs a timeline to dump, so a non-empty dump directory
  // implies capture even when the caller left `record.enabled` off.
  const bool want_record =
      config.record.enabled || !config.postmortem_dir.empty();
  recorder::RecordOptions ropts = config.record;
  ropts.enabled = want_record;

  // One guarded run per backend, each with its own recorder and scope.
  const auto run_side = [&](const engine::SimBackend& backend,
                            engine::ScenarioSpec side,
                            stress::FaultReport& fault, TraceMetrics& metrics,
                            recorder::Recording& recording) {
    side.record = ropts;
    const auto rec = engine::make_recorder(side);
    side.record_sink = rec.get();
    side.scope = config.scope;
    const auto sc = engine::make_scope(side);
    side.scope_sink = sc.get();
    const stress::GuardedResult result =
        stress::run_guarded(backend, std::move(side), config.guard);
    fault = result.fault;
    metrics = reduce_trace(result, spec.tail_fraction, fault);
    if (rec) recording = rec->snapshot();
  };
  const engine::ScenarioSpec oracle = oracle_spec(spec);
  run_side(engine::backend_for(engine::BackendKind::kFluid), oracle,
           out.fluid_fault, out.fluid, rs.fluid);
  engine::ScenarioSpec packet = oracle;
  packet.max_window_mss =
      std::min(packet.max_window_mss, config.packet_max_window_mss);
  run_side(engine::PacketBackend(engine::PacketBackend::Options{
               1500, config.packet_max_window_mss}),
           std::move(packet), out.packet_fault, out.packet, rs.packet);

  const bool fluid_ok = out.fluid_fault.ok();
  const bool packet_ok = out.packet_fault.ok();
  if (fluid_ok && packet_ok) {
    out.divergence = metric_divergence(out.fluid, out.packet);
    out.kind = out.divergence >= config.divergence_threshold
                   ? OutcomeKind::kDivergence
                   : OutcomeKind::kClean;
  } else if (!fluid_ok && !packet_ok) {
    out.kind = OutcomeKind::kBothFault;
  } else {
    out.kind = fluid_ok ? OutcomeKind::kPacketFault : OutcomeKind::kFluidFault;
  }

  out.novelty_key = novelty_key_for(out, spec);
  if (out.is_finding()) TELEMETRY_COUNT("fuzz.findings", 1);

  if (out.is_finding() && want_record && !config.postmortem_dir.empty()) {
    recorder::PostMortem pm;
    pm.kind = outcome_kind_name(out.kind);
    pm.divergence = out.divergence;
    pm.scenario_text = serialize_scenario(spec);
    const auto side = [](std::string label, const stress::FaultReport& fault,
                         recorder::Recording recording) {
      recorder::PostMortemSide s;
      s.label = std::move(label);
      if (!fault.ok()) {
        s.fault_kind = stress::fault_kind_name(fault.kind);
        s.fault_step = fault.step;
        s.fault_sender = fault.sender;
        s.detail = fault.detail;
      }
      s.recording = std::move(recording);
      return s;
    };
    pm.sides.push_back(side("fluid", out.fluid_fault, rs.fluid));
    pm.sides.push_back(side("packet", out.packet_fault, rs.packet));
    // Name the dump after the corpus entry it reproduces from, so a CI
    // triage can pair postmortem-scn-<hash>.jsonl with scn-<hash>.scn.
    std::string name = corpus_file_name(spec);
    pm.title = name;
    if (name.size() > 4) name.resize(name.size() - 4);  // drop ".scn"
    const stress::FaultReport write_fault = stress::guard_invoke([&] {
      out.postmortem_path =
          recorder::write_postmortem(config.postmortem_dir, name, pm);
    });
    if (!write_fault.ok()) {
      TELEMETRY_COUNT("fuzz.postmortem_write_failures", 1);
    }
  }
  return rs;
}

ExpectDesc expect_for(const RunOutcome& outcome) {
  ExpectDesc expect;
  expect.outcome = outcome_kind_name(outcome.kind);
  switch (outcome.kind) {
    case OutcomeKind::kFluidFault:
    case OutcomeKind::kBothFault:
      expect.detail = stress::fault_kind_name(outcome.fluid_fault.kind);
      break;
    case OutcomeKind::kPacketFault:
      expect.detail = stress::fault_kind_name(outcome.packet_fault.kind);
      break;
    case OutcomeKind::kClean:
    case OutcomeKind::kDivergence:
      break;
  }
  return expect;
}

bool matches_expect(const RunOutcome& outcome, const ExpectDesc& expect) {
  if (expect.empty()) return false;
  if (expect.outcome != outcome_kind_name(outcome.kind)) return false;
  if (expect.detail.empty()) return true;
  const stress::FaultReport& fault =
      outcome.kind == OutcomeKind::kPacketFault ? outcome.packet_fault
                                                : outcome.fluid_fault;
  return expect.detail == stress::fault_kind_name(fault.kind);
}

}  // namespace axiomcc::fuzz
