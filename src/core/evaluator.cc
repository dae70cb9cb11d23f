#include "core/evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cc/presets.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "fluid/loss_model.h"
#include "scope/scope.h"
#include "util/check.h"

namespace axiomcc::core {

namespace {

bool is_packet(const EvalConfig& cfg) {
  return cfg.backend == engine::BackendKind::kPacket;
}

// Effective scenario dimensions: the fluid configuration, clamped by the
// PacketLimits when the packet backend runs it (see EvalConfig::PacketLimits).
long shared_steps(const EvalConfig& cfg) {
  return is_packet(cfg) ? std::min(cfg.steps, cfg.packet.max_steps)
                        : cfg.steps;
}

long fast_utilization_steps(const EvalConfig& cfg) {
  return is_packet(cfg) ? std::min(cfg.fast_utilization_steps,
                                   cfg.packet.fast_utilization_steps)
                        : cfg.fast_utilization_steps;
}

long robustness_steps(const EvalConfig& cfg) {
  return is_packet(cfg)
             ? std::min(cfg.robustness_steps, cfg.packet.robustness_steps)
             : cfg.robustness_steps;
}

int robustness_iterations(const EvalConfig& cfg) {
  return is_packet(cfg) ? std::min(cfg.robustness_search_iterations,
                                   cfg.packet.robustness_search_iterations)
                        : cfg.robustness_search_iterations;
}

double escape_window(const EvalConfig& cfg) {
  return is_packet(cfg) ? std::min(cfg.robustness_escape_window,
                                   cfg.packet.robustness_escape_window)
                        : cfg.robustness_escape_window;
}

double max_window(const EvalConfig& cfg) {
  // The fluid default (SimOptions{}.max_window_mss == 1e9) is preserved
  // exactly so fluid traces stay bit-identical with the pre-engine code.
  return is_packet(cfg) ? cfg.packet.max_window_mss
                        : fluid::SimOptions{}.max_window_mss;
}

/// A link a lone sender never congests within a run. The fluid model takes
/// this literally (10^15 MSS/s); the packet backend gets a link merely large
/// enough that the window cap, not the queue, bounds an escaping sender.
fluid::LinkParams infinite_link(const EvalConfig& cfg) {
  fluid::LinkParams huge = cfg.link;
  if (is_packet(cfg)) {
    const double capacity = cfg.packet.infinite_capacity_mss;
    const double rtt = cfg.link.propagation_delay.value() * 2.0;
    huge.bandwidth = Bandwidth::from_mss_per_sec(capacity / rtt);
    huge.buffer_mss = capacity;
  } else {
    huge.bandwidth = Bandwidth::from_mss_per_sec(1e15);
    huge.buffer_mss = 1e15;
  }
  return huge;
}

engine::ScenarioSpec base_spec(const EvalConfig& cfg, long steps) {
  engine::ScenarioSpec spec;
  spec.link = cfg.link;
  spec.steps = steps;
  spec.max_window_mss = max_window(cfg);
  return spec;
}

const engine::SimBackend& backend(const EvalConfig& cfg) {
  return engine::backend_for(cfg.backend);
}

/// Throws the ScenarioError for EvalConfig field `field` unless `ok`.
void require(bool ok, const char* field, const char* rule, double value) {
  if (ok) return;
  std::ostringstream what;
  what << "EvalConfig." << field << " must be " << rule << ", got " << value;
  throw engine::ScenarioError(what.str());
}

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

void EvalConfig::validate() const {
  engine::validate_link(link, "EvalConfig.link");
  require(num_senders >= 1, "num_senders", ">= 1", num_senders);
  require(steps >= 1, "steps", ">= 1", static_cast<double>(steps));
  require(tail_fraction >= 0.0 && tail_fraction < 1.0, "tail_fraction",
          "in [0, 1)", tail_fraction);
  require(fast_utilization_steps >= 1, "fast_utilization_steps", ">= 1",
          static_cast<double>(fast_utilization_steps));
  require(robustness_steps >= 1, "robustness_steps", ">= 1",
          static_cast<double>(robustness_steps));
  require(positive_finite(robustness_escape_window),
          "robustness_escape_window", "finite and positive",
          robustness_escape_window);
  require(robustness_search_iterations >= 0, "robustness_search_iterations",
          ">= 0", robustness_search_iterations);
  require(robustness_max_rate >= 0.0 && robustness_max_rate < 1.0,
          "robustness_max_rate", "in [0, 1)", robustness_max_rate);
  require(num_protocol_senders >= 1, "num_protocol_senders", ">= 1",
          num_protocol_senders);
  require(num_reno_senders >= 1, "num_reno_senders", ">= 1",
          num_reno_senders);
  require(backend == engine::BackendKind::kFluid ||
              backend == engine::BackendKind::kPacket,
          "backend", "fluid or packet", static_cast<double>(backend));
  require(packet.max_window_mss >= 1.0 && std::isfinite(packet.max_window_mss),
          "packet.max_window_mss", "finite and >= 1", packet.max_window_mss);
  require(std::isfinite(packet.infinite_capacity_mss) &&
              packet.infinite_capacity_mss > packet.max_window_mss,
          "packet.infinite_capacity_mss",
          "finite and above packet.max_window_mss",
          packet.infinite_capacity_mss);
  require(packet.max_steps >= 1, "packet.max_steps", ">= 1",
          static_cast<double>(packet.max_steps));
  require(packet.fast_utilization_steps >= 1, "packet.fast_utilization_steps",
          ">= 1", static_cast<double>(packet.fast_utilization_steps));
  require(packet.robustness_steps >= 1, "packet.robustness_steps", ">= 1",
          static_cast<double>(packet.robustness_steps));
  require(packet.robustness_search_iterations >= 0,
          "packet.robustness_search_iterations", ">= 0",
          packet.robustness_search_iterations);
  require(positive_finite(packet.robustness_escape_window) &&
              packet.robustness_escape_window < packet.max_window_mss,
          "packet.robustness_escape_window",
          "finite, positive and below packet.max_window_mss",
          packet.robustness_escape_window);
  // The coefficient needs two windows past the warmup, in the run the
  // chosen backend makes (the packet clamp may shorten it; the member of
  // the same name hides the helper above).
  const long fast_steps = core::fast_utilization_steps(*this);
  if (fast_utilization_warmup < 0 ||
      fast_utilization_warmup >= fast_steps - 1) {
    throw engine::ScenarioError(
        "EvalConfig.fast_utilization_warmup must be in [0, " +
        std::to_string(fast_steps - 1) + ") for a " +
        std::to_string(fast_steps) + "-step fast-utilization run, got " +
        std::to_string(fast_utilization_warmup));
  }
}

fluid::Trace run_shared_link(const cc::Protocol& prototype,
                             const EvalConfig& cfg) {
  cfg.validate();
  engine::ScenarioSpec spec = base_spec(cfg, shared_steps(cfg));
  const double capacity = fluid::FluidLink(cfg.link).capacity_mss();
  for (int i = 0; i < cfg.num_senders; ++i) {
    // Spread-out starts (sender i begins with an i-proportional share) so the
    // run exercises the "for any initial configuration" quantifier.
    const double initial =
        1.0 + capacity * static_cast<double>(i) /
                  (2.0 * static_cast<double>(cfg.num_senders));
    spec.add_sender(prototype, initial);
  }
  return backend(cfg).run(spec).trace;
}

double measure_fast_utilization_score(const cc::Protocol& prototype,
                                      const EvalConfig& cfg) {
  cfg.validate();
  engine::ScenarioSpec spec = base_spec(cfg, fast_utilization_steps(cfg));
  spec.link = infinite_link(cfg);
  spec.add_sender(prototype, 1.0);
  const fluid::Trace trace = backend(cfg).run(spec).trace;
  const auto windows = trace.windows(0);
  const long warmup = cfg.fast_utilization_warmup;
  AXIOMCC_EXPECTS(windows.size() > static_cast<std::size_t>(warmup) + 1);
  // Protocols with multiplicative growth (PCC's STARTING phase doubles every
  // step) hit the window cap within the run, so the coefficient truncates
  // the series at saturation.
  return scope::fast_utilization(windows, warmup, spec.max_window_mss);
}

namespace {

/// One robustness probe: does the lone sender escape past the β threshold
/// under constant injected loss `rate`? The probe reads only where the
/// window ended, so it keeps only the last step.
bool escapes_under_loss(const cc::Protocol& prototype, const EvalConfig& cfg,
                        double rate) {
  engine::ScenarioSpec spec = base_spec(cfg, robustness_steps(cfg));
  spec.link = infinite_link(cfg);
  spec.add_sender(prototype, 1.0);
  spec.trace_detail = fluid::TraceDetail::kLast;
  // Kind constant even at rate 0, so every probe of the search is the same
  // scenario at another rate. Not for the bits: "no loss" at rate 0 gives
  // the same trace on both backends — fluid observes combine_loss(c, 0)
  // either way, and the packet InjectedRateLoss filter draws no coin at
  // rate 0 — and the score pins pass with it.
  spec.loss.kind = fluid::LossSpec::Kind::kConstant;
  spec.loss.rate = rate;
  const fluid::Trace trace = backend(cfg).run(spec).trace;
  return trace.windows(0).back() >= escape_window(cfg);
}

}  // namespace

double measure_robustness_score(const cc::Protocol& prototype,
                                const EvalConfig& cfg) {
  cfg.validate();
  if (!escapes_under_loss(prototype, cfg, 0.0)) {
    return 0.0;  // cannot even utilize a clean link; trivially 0-robust
  }
  double lo = 0.0;                      // known to escape
  double hi = cfg.robustness_max_rate;  // assumed not to escape
  if (escapes_under_loss(prototype, cfg, hi)) return hi;
  const int iterations = robustness_iterations(cfg);
  for (int iter = 0; iter < iterations; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (escapes_under_loss(prototype, cfg, mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

/// Runs n_p P-senders against n_q Q-senders and returns the trace plus the
/// index partition.
struct MixedRun {
  fluid::Trace trace;
  std::vector<int> p_senders;
  std::vector<int> q_senders;
};

MixedRun run_mixed(const cc::Protocol& p, const cc::Protocol& q, int n_p,
                   int n_q, const EvalConfig& cfg) {
  AXIOMCC_EXPECTS(n_p > 0 && n_q > 0);
  engine::ScenarioSpec spec = base_spec(cfg, shared_steps(cfg));
  MixedRun out{fluid::Trace(1, 1.0, 1.0), {}, {}};
  int index = 0;
  for (int i = 0; i < n_p; ++i, ++index) {
    spec.add_sender(p, 1.0);
    out.p_senders.push_back(index);
  }
  for (int j = 0; j < n_q; ++j, ++index) {
    spec.add_sender(q, 1.0);
    out.q_senders.push_back(index);
  }
  out.trace = backend(cfg).run(spec).trace;
  return out;
}

}  // namespace

double measure_tcp_friendliness_score(const cc::Protocol& prototype,
                                      const EvalConfig& cfg) {
  cfg.validate();
  const auto reno = cc::presets::reno();
  return measure_friendliness_between(prototype, *reno, cfg);
}

double measure_friendliness_between(const cc::Protocol& p,
                                    const cc::Protocol& q,
                                    const EvalConfig& cfg) {
  cfg.validate();
  const MixedRun run = run_mixed(p, q, cfg.num_protocol_senders,
                                 cfg.num_reno_senders, cfg);
  return measure_friendliness(run.trace, run.p_senders, run.q_senders,
                              cfg.estimator());
}

bool is_more_aggressive(const cc::Protocol& p, const cc::Protocol& q,
                        const EvalConfig& cfg) {
  cfg.validate();
  const MixedRun run = run_mixed(p, q, cfg.num_protocol_senders,
                                 cfg.num_reno_senders, cfg);
  double min_p = std::numeric_limits<double>::infinity();
  for (int i : run.p_senders) {
    min_p = std::min(min_p, tail_goodput(run.trace, i, cfg.estimator()));
  }
  double max_q = 0.0;
  for (int j : run.q_senders) {
    max_q = std::max(max_q, tail_goodput(run.trace, j, cfg.estimator()));
  }
  return min_p > max_q;
}

MetricReport evaluate_protocol(const cc::Protocol& prototype,
                               const EvalConfig& cfg) {
  cfg.validate();
  MetricReport report;

  const fluid::Trace shared = run_shared_link(prototype, cfg);
  const EstimatorConfig est = cfg.estimator();
  report.efficiency = measure_efficiency(shared, est);
  report.loss_avoidance = measure_loss_avoidance(shared, est);
  report.fairness = measure_fairness(shared, est);
  report.convergence = measure_convergence(shared, est);
  report.latency_avoidance = measure_latency_avoidance(shared, est);

  report.fast_utilization = measure_fast_utilization_score(prototype, cfg);
  report.robustness = measure_robustness_score(prototype, cfg);
  report.tcp_friendliness = measure_tcp_friendliness_score(prototype, cfg);
  return report;
}

}  // namespace axiomcc::core
