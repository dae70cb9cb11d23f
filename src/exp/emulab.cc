#include "exp/emulab.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "cc/presets.h"
#include "core/evaluator.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "exp/table1.h"
#include "fluid/link.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

namespace {

/// The cell's scenario skeleton: its link and horizon in engine terms. The
/// grid's wall-clock duration becomes a step count at one step per RTT.
engine::ScenarioSpec cell_spec(const EmulabGridConfig& cfg, double bw,
                               std::size_t buffer) {
  engine::ScenarioSpec spec;
  spec.link =
      fluid::make_link_mbps(bw, cfg.rtt_ms, static_cast<double>(buffer));
  spec.steps = std::lround(cfg.duration_seconds / (cfg.rtt_ms / 1e3));
  spec.seed = cfg.seed;
  spec.tail_fraction = cfg.tail_fraction;
  return spec;
}

/// Staggered start in fractional steps: flow i joins at 0.05·i seconds.
double stagger_step(const EmulabGridConfig& cfg, int i) {
  return 0.05 * static_cast<double>(i) / (cfg.rtt_ms / 1e3);
}

const engine::SimBackend& packet_backend() {
  return engine::backend_for(engine::BackendKind::kPacket);
}

/// Homogeneous run of `n` copies of `proto`; fills the efficiency, loss,
/// fairness, and convergence scores.
void measure_homogeneous(const EmulabGridConfig& cfg, double bw,
                         std::size_t buffer, int n, const cc::Protocol& proto,
                         EmulabScores& out) {
  engine::ScenarioSpec spec = cell_spec(cfg, bw, buffer);
  const double capacity = fluid::FluidLink(spec.link).capacity_mss();
  for (int i = 0; i < n; ++i) {
    // Spread-out initial windows mirror the fluid scenario's "for any
    // initial configuration" quantifier (it is what exposes MIMD's
    // ratio-preservation); slightly staggered starts break phase lock while
    // keeping runs deterministic.
    const double initial =
        std::max(2.0, capacity * static_cast<double>(i) /
                          (2.0 * static_cast<double>(n)));
    spec.add_sender(proto, initial, stagger_step(cfg, i));
  }
  const engine::RunTrace rt = packet_backend().run(spec);

  core::EstimatorConfig est{cfg.tail_fraction};
  est.outlier_fraction = 0.02;  // absorb packet-level sampling noise
  out.efficiency = core::measure_efficiency(rt.trace, est);
  out.fairness = core::measure_fairness(rt.trace, est);
  out.convergence = core::measure_convergence(rt.trace, est);

  double loss_sum = 0.0;
  for (const auto& r : rt.flows) loss_sum += r.loss_rate;
  out.loss_rate = loss_sum / static_cast<double>(rt.flows.size());
}

/// Mixed run: (n−1) protocol senders + 1 Reno; fills tcp_friendliness.
void measure_friendliness(const EmulabGridConfig& cfg, double bw,
                          std::size_t buffer, int n, const cc::Protocol& proto,
                          EmulabScores& out) {
  engine::ScenarioSpec spec = cell_spec(cfg, bw, buffer);
  const auto reno = cc::presets::reno();
  std::vector<int> p_idx;
  std::vector<int> q_idx;
  for (int i = 0; i + 1 < n; ++i) {
    spec.add_sender(proto, 2.0, stagger_step(cfg, i));
    p_idx.push_back(i);
  }
  spec.add_sender(*reno, 2.0, stagger_step(cfg, n - 1));
  q_idx.push_back(n - 1);
  const engine::RunTrace rt = packet_backend().run(spec);
  out.tcp_friendliness = core::measure_friendliness(
      rt.trace, p_idx, q_idx, core::EstimatorConfig{cfg.tail_fraction});
}

EmulabScores measure_protocol(const EmulabGridConfig& cfg, double bw,
                              std::size_t buffer, int n,
                              const cc::Protocol& proto) {
  EmulabScores scores;
  scores.protocol = proto.name();
  measure_homogeneous(cfg, bw, buffer, n, proto, scores);
  measure_friendliness(cfg, bw, buffer, n, proto, scores);
  return scores;
}

}  // namespace

std::vector<EmulabCell> run_emulab_grid(const EmulabGridConfig& cfg) {
  // Cells in row order: n outermost, buffer innermost — the same order the
  // serial loops produced. Every cell is a pure function of its index and
  // builds its own protocol presets, so the grid is bit-identical at any job
  // count.
  const std::size_t per_bw = cfg.buffers_packets.size();
  const std::size_t per_n = cfg.bandwidths_mbps.size() * per_bw;
  return parallel_map(
      cfg.sender_counts.size() * per_n,
      [&](std::size_t i) {
        const int n = cfg.sender_counts[i / per_n];
        const double bw = cfg.bandwidths_mbps[(i / per_bw) % cfg.bandwidths_mbps.size()];
        const std::size_t buffer = cfg.buffers_packets[i % per_bw];
        // .append, not "n" + ...: GCC 12 warns (-Wrestrict, a false
        // positive) on a literal prepended to a temporary string.
        TELEMETRY_SPAN_DYN("exp.emulab",
                           std::string("n").append(std::to_string(n)) +
                               "/bw" + std::to_string(bw) + "/buf" +
                               std::to_string(buffer));
        TELEMETRY_COUNT("exp.emulab.cells", 1);

        const auto reno = cc::presets::reno();
        const auto cubic = cc::presets::cubic_linux();
        const auto scalable = cc::presets::scalable();

        EmulabCell cell;
        cell.n = n;
        cell.bandwidth_mbps = bw;
        cell.buffer_packets = buffer;
        cell.protocols.push_back(measure_protocol(cfg, bw, buffer, n, *reno));
        cell.protocols.push_back(measure_protocol(cfg, bw, buffer, n, *cubic));
        cell.protocols.push_back(
            measure_protocol(cfg, bw, buffer, n, *scalable));
        return cell;
      },
      cfg.jobs);
}

namespace {

/// Model-predicted scores for the three Linux protocols at this cell's
/// parameters, measured on the FLUID model — the substrate the paper's
/// theory is derived in. (The closed-form Table 1 cells are loose bounds;
/// the hierarchy claim in Section 5.1 is about the model's predictions.)
std::vector<core::MetricReport> theory_reports(const EmulabCell& cell) {
  core::EvalConfig ec;
  ec.link = fluid::make_link_mbps(cell.bandwidth_mbps, 42.0,
                                  static_cast<double>(cell.buffer_packets));
  ec.num_senders = cell.n;
  ec.steps = 3000;
  ec.num_protocol_senders = std::max(cell.n - 1, 1);
  ec.num_reno_senders = 1;

  const std::unique_ptr<cc::Protocol> protocols[] = {
      cc::presets::reno(), cc::presets::cubic_linux(),
      cc::presets::scalable()};

  std::vector<core::MetricReport> reports;
  for (const auto& proto : protocols) {
    const fluid::Trace t = core::run_shared_link(*proto, ec);
    core::EstimatorConfig est = ec.estimator();
    est.outlier_fraction = 0.02;  // same reduction as the packet side
    core::MetricReport r;
    r.efficiency = core::measure_efficiency(t, est);
    // The packet side measures lost/sent over the tail — a MEAN loss rate —
    // so the model side must predict the same quantity, not the axiom's
    // worst-step bound.
    r.loss_avoidance = core::measure_mean_loss(t, est);
    r.fairness = core::measure_fairness(t, est);
    r.convergence = core::measure_convergence(t, est);
    r.tcp_friendliness = core::measure_tcp_friendliness_score(*proto, ec);
    reports.push_back(r);
  }
  return reports;
}

double oriented_measured(const EmulabScores& s, core::Metric m) {
  switch (m) {
    case core::Metric::kEfficiency: return s.efficiency;
    case core::Metric::kLossAvoidance: return -s.loss_rate;
    case core::Metric::kFairness: return s.fairness;
    case core::Metric::kConvergence: return s.convergence;
    case core::Metric::kTcpFriendliness: return s.tcp_friendliness;
    default: AXIOMCC_EXPECTS_MSG(false, "metric not measured by emulab grid");
  }
  return 0.0;
}

/// Differences below this are ties — protocols this close in a metric make
/// no hierarchy claim. Loss rates live near zero, so a relative margin would
/// turn 0.0007-vs-0.0011 into a "strict" ordering; use an absolute floor
/// appropriate to each metric's scale.
double tie_threshold(core::Metric m) {
  return m == core::Metric::kLossAvoidance ? 0.005 : 0.05;
}

std::string order_string(const std::vector<std::string>& names,
                         const std::vector<double>& scores) {
  std::vector<std::size_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  std::string out;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (i > 0) out += " < ";
    out += names[idx[i]];
  }
  return out;
}

}  // namespace

HierarchyJudgement judge_hierarchy(core::Metric m,
                                   const std::vector<std::string>& names,
                                   const std::vector<double>& reference,
                                   const std::vector<double>& candidate,
                                   double tie_floor) {
  AXIOMCC_EXPECTS(reference.size() == names.size() &&
                  candidate.size() == names.size());
  constexpr double kReferenceMargin = 0.05;
  constexpr double kCandidateSlack = 0.02;

  HierarchyJudgement j;
  j.reference_order = order_string(names, reference);
  j.candidate_order = order_string(names, candidate);
  const std::size_t n = names.size();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const double scale =
          std::max({std::fabs(reference[a]), std::fabs(reference[b]), 1e-9});
      const double threshold =
          std::max(kReferenceMargin * scale, tie_threshold(m));
      if (reference[a] - reference[b] <= threshold) continue;  // a tie
      ++j.pairs;
      const double cscale =
          std::max({std::fabs(candidate[a]), std::fabs(candidate[b]), 1e-9});
      const double slack =
          std::max(kCandidateSlack * cscale, tie_floor * tie_threshold(m));
      if (candidate[a] - candidate[b] >= -slack) ++j.agreeing_pairs;
    }
  }
  return j;
}

std::vector<HierarchyVerdict> check_hierarchies(const EmulabCell& cell) {
  AXIOMCC_EXPECTS(cell.protocols.size() == 3);
  const auto theory = theory_reports(cell);
  std::vector<std::string> names;
  for (const EmulabScores& s : cell.protocols) names.push_back(s.protocol);

  const core::Metric metrics[] = {
      core::Metric::kEfficiency, core::Metric::kLossAvoidance,
      core::Metric::kFairness, core::Metric::kConvergence,
      core::Metric::kTcpFriendliness};

  std::vector<HierarchyVerdict> verdicts;
  for (core::Metric m : metrics) {
    std::vector<double> th(3);
    std::vector<double> me(3);
    for (std::size_t i = 0; i < 3; ++i) {
      th[i] = theory[i].oriented()[static_cast<std::size_t>(m)];
      me[i] = oriented_measured(cell.protocols[i], m);
    }
    // Theory is the reference; measurement must not invert its claims.
    const HierarchyJudgement j = judge_hierarchy(m, names, th, me, 0.5);
    verdicts.push_back(HierarchyVerdict{m, j.agreeing_pairs == j.pairs,
                                        j.candidate_order, j.reference_order});
  }
  return verdicts;
}

}  // namespace axiomcc::exp
