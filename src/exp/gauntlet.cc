#include "exp/gauntlet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <utility>
#include <vector>

#include "cc/registry.h"
#include "core/metrics.h"
#include "engine/topology.h"
#include "scope/scope.h"
#include "stress/perturbation.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A tail-mean window below this counts a sender as "gone" for fairness.
constexpr double kActiveWindowFloor = 1e-6;
/// Recovery target: fraction of the baseline tail mean to regain.
constexpr double kRecoveryFraction = 0.8;

/// First index of the scoring tail of a `steps`-long series.
std::size_t tail_start(std::size_t steps, double tail_fraction) {
  const auto start =
      static_cast<std::size_t>(static_cast<double>(steps) * tail_fraction);
  return std::min(start, steps > 0 ? steps - 1 : 0);
}

double tail_mean(std::span<const double> series, double tail_fraction) {
  if (series.empty()) return 0.0;
  const std::size_t start = tail_start(series.size(), tail_fraction);
  double sum = 0.0;
  for (std::size_t t = start; t < series.size(); ++t) sum += series[t];
  return sum / static_cast<double>(series.size() - start);
}

/// Tail mean of min(1, X(t)/C) against the nominal capacity.
double tail_utilization(const fluid::Trace& trace, double tail_fraction) {
  const auto total = trace.total_window();
  if (total.empty()) return 0.0;
  const double capacity = trace.link_capacity_mss();
  const std::size_t start = tail_start(total.size(), tail_fraction);
  double sum = 0.0;
  for (std::size_t t = start; t < total.size(); ++t) {
    sum += std::min(1.0, total[t] / capacity);
  }
  return sum / static_cast<double>(total.size() - start);
}

/// Metric IV over the tail-mean windows of senders still active in the tail.
double tail_fairness(const fluid::Trace& trace, double tail_fraction) {
  std::vector<double> means;
  for (int i = 0; i < trace.num_senders(); ++i) {
    const double mean = tail_mean(trace.windows(i), tail_fraction);
    if (mean > kActiveWindowFloor) means.push_back(mean);
  }
  return scope::fairness(means);
}

/// Steps past `recover_from` until the aggregate window regains
/// kRecoveryFraction × `target`; +inf when it never does within the trace.
double recovery_steps_after(const fluid::Trace& trace, long recover_from,
                            double target) {
  const auto total = trace.total_window();
  if (target <= 0.0) return 0.0;
  for (std::size_t t = static_cast<std::size_t>(recover_from);
       t < total.size(); ++t) {
    if (total[t] >= kRecoveryFraction * target) {
      return static_cast<double>(t) - static_cast<double>(recover_from);
    }
  }
  return kInf;
}

/// File-name-safe cell label for post-mortem dumps: protocol spec strings
/// carry parentheses and commas ("aimd(1,0.5)"), which make awkward shell
/// citizens as file names.
std::string sanitize_label(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.';
    out.push_back(keep ? c : '_');
  }
  return out;
}

/// The cell's base scenario: `num_senders` clones of `proto` with evenly
/// spread initial windows, matching the evaluator's shared-link runs.
engine::ScenarioSpec make_cell_spec(const cc::Protocol& proto,
                                    const GauntletConfig& cfg) {
  engine::ScenarioSpec spec;
  spec.link = cfg.link;
  spec.steps = cfg.steps;
  if (cfg.topology_bottlenecks > 0) {
    engine::apply_parking_lot(
        spec, cfg.link, cfg.topology_bottlenecks, proto,
        std::max<long>(1, static_cast<long>(cfg.num_senders) - 1));
    return spec;
  }
  const double capacity = fluid::FluidLink(cfg.link).capacity_mss();
  for (int i = 0; i < cfg.num_senders; ++i) {
    const double initial =
        1.0 + capacity * static_cast<double>(i) /
                  (2.0 * static_cast<double>(cfg.num_senders));
    spec.add_sender(proto, initial);
  }
  return spec;
}

struct Baseline {
  bool ok = false;
  double tail_total = 0.0;        ///< tail-mean aggregate window.
  double tail_utilization = 0.0;  ///< tail utilization.
};

Baseline run_baseline(const cc::Protocol& proto, const GauntletConfig& cfg) {
  const stress::GuardedResult result =
      stress::run_guarded(engine::backend_for(cfg.backend),
                          make_cell_spec(proto, cfg), cfg.guard);
  Baseline base;
  if (!result.fault.ok()) return base;
  base.ok = true;
  base.tail_total = tail_mean(result.trace.total_window(), cfg.tail_fraction);
  base.tail_utilization = tail_utilization(result.trace, cfg.tail_fraction);
  return base;
}

GauntletCell run_cell(const cc::Protocol& proto,
                      const GauntletOverlay& scenario, std::uint64_t seed,
                      const Baseline& baseline, const GauntletConfig& cfg) {
  TELEMETRY_SPAN_DYN("exp.gauntlet", proto.name() + "/" + scenario.name +
                                         "/s" + std::to_string(seed));
  TELEMETRY_COUNT("exp.gauntlet.cells", 1);
  GauntletCell cell;
  cell.protocol = proto.name();
  cell.scenario = scenario.name;
  cell.seed = seed;

  engine::ScenarioSpec spec = gauntlet_cell_spec(proto, scenario, seed, cfg);

  spec.record = cfg.record;
  const auto rec = engine::make_recorder(spec);
  spec.record_sink = rec.get();
  stress::GuardConfig guard = cfg.guard;
  if (rec != nullptr && !cfg.record_dir.empty()) {
    guard.postmortem_dir = cfg.record_dir;
    guard.postmortem_label = sanitize_label(cell.protocol + "-" +
                                            cell.scenario + "-s" +
                                            std::to_string(seed));
  }

  const stress::GuardedResult result = stress::run_guarded(
      engine::backend_for(cfg.backend), std::move(spec), guard);
  cell.fault = result.fault;
  if (!cell.fault.ok()) return cell;

  cell.utilization = tail_utilization(result.trace, cfg.tail_fraction);
  cell.throughput_retention =
      baseline.ok && baseline.tail_utilization > 0.0
          ? cell.utilization / baseline.tail_utilization
          : 0.0;
  cell.fairness = tail_fairness(result.trace, cfg.tail_fraction);
  {
    const auto loss = result.trace.congestion_loss();
    cell.loss_rate = tail_mean(loss, cfg.tail_fraction);
  }
  if (scenario.perturb_end >= 0 &&
      scenario.perturb_end < static_cast<long>(result.trace.num_steps())) {
    cell.recovery_steps = recovery_steps_after(
        result.trace, scenario.perturb_end, baseline.tail_total);
  }
  return cell;
}

}  // namespace

std::vector<GauntletOverlay> gauntlet_library(long steps) {
  AXIOMCC_EXPECTS(steps >= 100);
  std::vector<GauntletOverlay> out;
  // Appends an overlay disturbing steps [start, end) (-1: none / to the end).
  const auto add = [&out](const char* name, long start = -1,
                          long end = -1) -> GauntletOverlay& {
    GauntletOverlay& o = out.emplace_back();
    o.name = name;
    o.perturb_start = start;
    o.perturb_end = end;
    return o;
  };
  const auto churn_slot = [](long start, long stop) {
    engine::SenderSlot slot;
    slot.start_step = static_cast<double>(start);
    slot.stop_step = static_cast<double>(stop);
    return slot;
  };

  add("baseline");
  // One deep outage in the middle third: bandwidth → ~0 for steps/10.
  const long outage = steps * 2 / 5;
  add("outage", outage, outage + steps / 10).bandwidth_scale =
      stress::outage_schedule(outage, steps / 10, 1e-3);
  // Fast flapping: full rate / 5% of rate every 8 steps.
  add("flap", 0).bandwidth_scale =
      stress::square_wave_schedule(steps, 16, 1.0, 0.05);
  // Slow square-wave capacity oscillation between 100% and 40%.
  add("oscillation", 0).bandwidth_scale =
      stress::square_wave_schedule(steps, steps / 5, 1.0, 0.4);
  // Sawtooth capacity: ramps 30% → 100%, collapses, repeats.
  add("sawtooth", 0).bandwidth_scale =
      stress::sawtooth_schedule(steps, steps / 6, 0.3, 1.0);
  {
    // A Gilbert-Elliott loss storm over the middle third of the run.
    fluid::LossSpec& storm = add("loss_storm", steps / 3, 2 * steps / 3).loss;
    storm.kind = fluid::LossSpec::Kind::kStorm;
    storm.start = steps / 3;
    storm.end = 2 * steps / 3;
    storm.p_gb = 0.2;
    storm.p_bg = 0.3;
    storm.good_rate = 0.0;
    storm.bad_rate = 0.3;
  }
  // Persistent 3× RTT inflation from mid-run (path change).
  add("rtt_step", steps / 2).rtt_scale =
      stress::step_change_schedule(steps / 2, 1.0, 3.0);
  // Flow churn: two extra flows join in the middle third; one leaves.
  add("churn", steps / 3, 2 * steps / 3).churn = {
      churn_slot(steps / 3, 2 * steps / 3), churn_slot(steps / 2, -1)};
  return out;
}

engine::ScenarioSpec gauntlet_cell_spec(const cc::Protocol& proto,
                                        const GauntletOverlay& overlay,
                                        std::uint64_t seed,
                                        const GauntletConfig& cfg) {
  engine::ScenarioSpec spec = make_cell_spec(proto, cfg);
  spec.bandwidth_scale = overlay.bandwidth_scale;
  spec.rtt_scale = overlay.rtt_scale;
  spec.loss = overlay.loss;
  spec.seed = seed;
  for (engine::SenderSlot slot : overlay.churn) {
    slot.prototype = &proto;
    // Topology mode: churned flows join on the first slot's route (the long
    // path in the parking-lot builder), so the perturbation stresses every
    // bottleneck the resident flows cross.
    if (!spec.topology.empty()) slot.route = spec.senders.front().route;
    spec.senders.push_back(std::move(slot));
  }
  return spec;
}

std::vector<std::string> default_gauntlet_specs() {
  // Canonical parameter choices for families whose spec requires arguments;
  // preset aliases (reno, scalable, cubic-linux) resolve to the same
  // protocols as the canonical family entries and are skipped.
  std::vector<std::string> specs;
  for (const std::string& name : cc::known_protocol_names()) {
    if (name == "reno" || name == "scalable" || name == "cubic-linux") {
      continue;
    }
    if (name == "aimd") {
      specs.push_back("aimd(1,0.5)");
    } else if (name == "mimd") {
      specs.push_back("mimd(1.01,0.875)");
    } else if (name == "bin") {
      specs.push_back("bin(1,0.5,0.5,0.5)");
    } else if (name == "cubic") {
      specs.push_back("cubic(0.4,0.8)");
    } else if (name == "robust_aimd") {
      specs.push_back("robust_aimd(1,0.8,0.01)");
    } else if (name == "vegas") {
      specs.push_back("vegas(2,4)");
    } else {
      specs.push_back(name);  // families with default-argument forms.
    }
  }
  return specs;
}

namespace {

/// Per-protocol pre-pass: the unperturbed baseline plus (optionally) the
/// eight axiom metrics. Both run on `proto` exclusively.
struct ProtocolContext {
  Baseline baseline;
  core::MetricReport axioms;
  stress::FaultReport axiom_fault;
};

ProtocolContext run_protocol_context(const cc::Protocol& proto,
                                     const GauntletConfig& cfg) {
  TELEMETRY_SPAN_DYN("exp.gauntlet", proto.name() + "/context");
  ProtocolContext ctx;
  ctx.baseline = run_baseline(proto, cfg);
  if (cfg.include_axiom_metrics) {
    core::EvalConfig axiom_cfg = cfg.axiom_cfg;
    axiom_cfg.link = cfg.link;
    axiom_cfg.backend = cfg.backend;
    ctx.axiom_fault = stress::guard_invoke(
        [&] { ctx.axioms = core::evaluate_protocol(proto, axiom_cfg); });
    if (ctx.axiom_fault.ok()) {
      for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
        const double v = ctx.axioms.get(static_cast<core::Metric>(m));
        // Fast-utilization is legitimately +inf for super-linear protocols;
        // only NaN marks a corrupted evaluation.
        if (std::isnan(v)) {
          ctx.axiom_fault.kind = stress::FaultKind::kNonFiniteScore;
          ctx.axiom_fault.detail =
              std::string("axiom metric ") +
              core::metric_name(static_cast<core::Metric>(m)) + " is NaN";
          break;
        }
      }
    }
  }
  return ctx;
}

}  // namespace

GauntletResult run_gauntlet_prototypes(
    const std::vector<const cc::Protocol*>& prototypes,
    const GauntletConfig& cfg) {
  AXIOMCC_EXPECTS(!prototypes.empty());
  AXIOMCC_EXPECTS(!cfg.seeds.empty());
  AXIOMCC_EXPECTS(cfg.steps >= 100);
  AXIOMCC_EXPECTS(cfg.num_senders > 0);
  AXIOMCC_EXPECTS(cfg.tail_fraction > 0.0 && cfg.tail_fraction < 1.0);
  for (const cc::Protocol* p : prototypes) AXIOMCC_EXPECTS(p != nullptr);

  // Materialize the default overlay library when the caller supplied none.
  const std::vector<GauntletOverlay> owned =
      cfg.scenarios.empty() ? gauntlet_library(cfg.steps)
                            : std::vector<GauntletOverlay>{};
  const std::vector<GauntletOverlay>& active =
      cfg.scenarios.empty() ? owned : cfg.scenarios;

  // cc::Protocol instances are stateful and must not be shared across
  // threads; every parallel task below works on a clone made up front on
  // this thread. Cell ordering (and with it CSV output) is the serial
  // ordering: protocol-major, then scenario, then seed — parallel_map
  // writes each result into its input slot.
  const std::size_t num_scenarios = active.size();
  const std::size_t num_seeds = cfg.seeds.size();
  const std::size_t cells_per_proto = num_scenarios * num_seeds;
  const std::size_t num_cells = prototypes.size() * cells_per_proto;

  // Phase 1: per-protocol baseline + axiom metrics.
  std::vector<std::unique_ptr<cc::Protocol>> context_clones;
  context_clones.reserve(prototypes.size());
  for (const cc::Protocol* proto : prototypes) {
    context_clones.push_back(proto->clone());
  }
  const std::vector<ProtocolContext> contexts = parallel_map(
      prototypes.size(),
      [&](std::size_t p) { return run_protocol_context(*context_clones[p], cfg); },
      cfg.jobs);

  // Phase 2: the full (protocol, scenario, seed) matrix.
  std::vector<std::unique_ptr<cc::Protocol>> cell_clones;
  cell_clones.reserve(num_cells);
  for (const cc::Protocol* proto : prototypes) {
    for (std::size_t c = 0; c < cells_per_proto; ++c) {
      cell_clones.push_back(proto->clone());
    }
  }
  GauntletResult result;
  result.cells = parallel_map(
      num_cells,
      [&](std::size_t i) {
        const std::size_t p = i / cells_per_proto;
        const std::size_t within = i % cells_per_proto;
        const GauntletOverlay& scenario = active[within / num_seeds];
        const std::uint64_t seed = cfg.seeds[within % num_seeds];
        return run_cell(*cell_clones[i], scenario, seed, contexts[p].baseline,
                        cfg);
      },
      cfg.jobs);

  // Phase 3: serial per-protocol aggregation, in prototype order.
  for (std::size_t p = 0; p < prototypes.size(); ++p) {
    GauntletScore score;
    score.protocol = prototypes[p]->name();
    double retention_sum = 0.0;
    double utilization_sum = 0.0;
    double recovery_sum = 0.0;
    int recovery_cells = 0;
    int clean_cells = 0;
    score.worst_retention = kInf;
    score.worst_fairness = kInf;

    for (std::size_t c = 0; c < cells_per_proto; ++c) {
      const GauntletCell& cell = result.cells[p * cells_per_proto + c];
      ++score.cells;
      if (!cell.fault.ok()) {
        ++score.failed_cells;
      } else {
        ++clean_cells;
        utilization_sum += cell.utilization;
        retention_sum += cell.throughput_retention;
        score.worst_retention =
            std::min(score.worst_retention, cell.throughput_retention);
        score.worst_fairness = std::min(score.worst_fairness, cell.fairness);
        if (cell.recovery_steps >= 0.0) {
          if (std::isinf(cell.recovery_steps)) {
            ++score.unrecovered_cells;
          } else {
            recovery_sum += cell.recovery_steps;
            ++recovery_cells;
          }
        }
      }
    }

    if (clean_cells > 0) {
      score.mean_utilization = utilization_sum / clean_cells;
      score.mean_retention = retention_sum / clean_cells;
    } else {
      score.worst_retention = 0.0;
      score.worst_fairness = 0.0;
    }
    if (recovery_cells > 0) {
      score.mean_recovery_steps = recovery_sum / recovery_cells;
    }

    if (cfg.include_axiom_metrics) {
      score.axioms = contexts[p].axioms;
      score.axiom_fault = contexts[p].axiom_fault;
    }
    TELEMETRY_COUNT("exp.gauntlet.failed_cells", score.failed_cells);
    TELEMETRY_COUNT("exp.gauntlet.unrecovered_cells", score.unrecovered_cells);
    result.scorecard.push_back(std::move(score));
  }
  return result;
}

GauntletResult run_gauntlet(const std::vector<std::string>& protocol_specs,
                            const GauntletConfig& cfg) {
  AXIOMCC_EXPECTS(!protocol_specs.empty());
  // Parse everything up front so a typo fails before any cell runs.
  std::vector<std::unique_ptr<cc::Protocol>> owned;
  owned.reserve(protocol_specs.size());
  for (const std::string& spec : protocol_specs) {
    owned.push_back(cc::make_protocol(spec));
  }
  std::vector<const cc::Protocol*> prototypes;
  prototypes.reserve(owned.size());
  for (const auto& p : owned) prototypes.push_back(p.get());
  return run_gauntlet_prototypes(prototypes, cfg);
}

void write_gauntlet_csv(const std::vector<GauntletCell>& cells,
                        std::ostream& out) {
  out << "protocol,scenario,seed,status,utilization,throughput_retention,"
         "recovery_steps,fairness,loss_rate\n";
  for (const GauntletCell& cell : cells) {
    out << '"' << cell.protocol << '"' << ',' << cell.scenario << ','
        << cell.seed << ',' << stress::fault_kind_name(cell.fault.kind) << ','
        << cell.utilization << ',' << cell.throughput_retention << ','
        << cell.recovery_steps << ',' << cell.fairness << ','
        << cell.loss_rate << '\n';
  }
}

void write_scorecard_csv(const std::vector<GauntletScore>& scores,
                         std::ostream& out) {
  out << "protocol,cells,failed_cells,mean_utilization,mean_retention,"
         "worst_retention,mean_recovery_steps,unrecovered_cells,"
         "worst_fairness,axiom_status";
  for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
    out << ',' << core::metric_name(static_cast<core::Metric>(m));
  }
  out << '\n';
  for (const GauntletScore& s : scores) {
    out << '"' << s.protocol << '"' << ',' << s.cells << ','
        << s.failed_cells << ',' << s.mean_utilization << ','
        << s.mean_retention << ',' << s.worst_retention << ','
        << s.mean_recovery_steps << ',' << s.unrecovered_cells << ','
        << s.worst_fairness << ','
        << stress::fault_kind_name(s.axiom_fault.kind);
    for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
      out << ',' << s.axioms.get(static_cast<core::Metric>(m));
    }
    out << '\n';
  }
}

}  // namespace axiomcc::exp
