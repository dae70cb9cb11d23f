#include "exp/table1.h"

#include <limits>

#include "cc/aimd.h"
#include "cc/binomial.h"
#include "cc/cubic.h"
#include "cc/mimd.h"
#include "cc/robust_aimd.h"
#include "core/theory.h"
#include "fluid/link.h"
#include "telemetry/telemetry.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct LinkView {
  double capacity;
  double buffer;
  int n;
};

LinkView link_view(const core::EvalConfig& cfg) {
  const fluid::FluidLink link(cfg.link);
  return LinkView{link.capacity_mss(), link.buffer_mss(), cfg.num_senders};
}

/// Latency inflation when loss-based senders fill the buffer: τ/C.
double loss_based_latency(const LinkView& lv) { return lv.buffer / lv.capacity; }

}  // namespace

core::MetricReport aimd_theory(double a, double b, const core::EvalConfig& cfg,
                               bool worst_case) {
  namespace th = core::theory;
  const LinkView lv = link_view(cfg);
  core::MetricReport r;
  r.efficiency = worst_case ? th::aimd_efficiency_worst(b)
                            : th::aimd_efficiency(b, lv.capacity, lv.buffer);
  r.loss_avoidance =
      worst_case ? 1.0 : th::aimd_loss_bound(a, lv.capacity, lv.buffer, lv.n);
  r.fast_utilization = th::aimd_fast_utilization(a);
  r.tcp_friendliness = th::aimd_friendliness(a, b);
  r.fairness = 1.0;
  r.convergence = th::aimd_convergence(b);
  r.robustness = 0.0;
  r.latency_avoidance = worst_case ? kInf : loss_based_latency(lv);
  return r;
}

core::MetricReport mimd_theory(double a, double b, const core::EvalConfig& cfg,
                               bool worst_case) {
  namespace th = core::theory;
  const LinkView lv = link_view(cfg);
  core::MetricReport r;
  r.efficiency = worst_case ? th::mimd_efficiency_worst(b)
                            : th::mimd_efficiency(b, lv.capacity, lv.buffer);
  // See theory.h: the paper's printed worst case is a/(1+a); the
  // model-derived bound 1−1/a is what the fluid dynamics actually produce.
  r.loss_avoidance = worst_case ? th::mimd_loss_bound_paper(a)
                                : th::mimd_loss_bound_model(a);
  r.fast_utilization = kInf;
  r.tcp_friendliness =
      worst_case ? 0.0 : th::mimd_friendliness(a, b, lv.capacity, lv.buffer);
  r.fairness = worst_case ? 0.0 : 0.0;  // MIMD preserves initial ratios: <0>
  r.convergence = th::mimd_convergence(b);
  r.robustness = 0.0;
  r.latency_avoidance = worst_case ? kInf : loss_based_latency(lv);
  return r;
}

core::MetricReport bin_theory(double a, double b, double k, double l,
                              const core::EvalConfig& cfg, bool worst_case) {
  namespace th = core::theory;
  const LinkView lv = link_view(cfg);
  core::MetricReport r;
  r.efficiency = worst_case
                     ? th::bin_efficiency_worst(b)
                     : th::bin_efficiency(b, l, lv.capacity, lv.buffer, lv.n);
  r.loss_avoidance =
      worst_case ? 1.0
                 : th::bin_loss_bound_model(a, k, lv.capacity, lv.buffer, lv.n);
  r.fast_utilization = th::bin_fast_utilization(a, k);
  r.tcp_friendliness = th::bin_friendliness(a, b, k, l);
  r.fairness = 1.0;
  r.convergence = worst_case
                      ? th::bin_convergence_worst(b)
                      : th::bin_convergence(b, l, lv.capacity, lv.buffer, lv.n);
  r.robustness = 0.0;
  r.latency_avoidance = worst_case ? kInf : loss_based_latency(lv);
  return r;
}

core::MetricReport cubic_theory(double c, double b, const core::EvalConfig& cfg,
                                bool worst_case) {
  namespace th = core::theory;
  const LinkView lv = link_view(cfg);
  core::MetricReport r;
  r.efficiency = worst_case ? th::cubic_efficiency_worst(b)
                            : th::cubic_efficiency(b, lv.capacity, lv.buffer);
  r.loss_avoidance =
      worst_case ? 1.0 : th::cubic_loss_bound(c, lv.capacity, lv.buffer, lv.n);
  r.fast_utilization = th::cubic_fast_utilization(c);
  r.tcp_friendliness =
      worst_case ? 0.0 : th::cubic_friendliness(c, b, lv.capacity, lv.buffer);
  r.fairness = 1.0;
  r.convergence = th::cubic_convergence(b);
  r.robustness = 0.0;
  r.latency_avoidance = worst_case ? kInf : loss_based_latency(lv);
  return r;
}

core::MetricReport robust_aimd_theory(double a, double b, double eps,
                                      const core::EvalConfig& cfg,
                                      bool worst_case) {
  namespace th = core::theory;
  const LinkView lv = link_view(cfg);
  core::MetricReport r;
  r.efficiency = worst_case
                     ? th::robust_aimd_efficiency_worst(b, eps)
                     : th::robust_aimd_efficiency(b, eps, lv.capacity, lv.buffer);
  r.loss_avoidance =
      worst_case
          ? 1.0
          : th::robust_aimd_loss_bound(a, eps, lv.capacity, lv.buffer, lv.n);
  r.fast_utilization = th::robust_aimd_fast_utilization(a);
  r.tcp_friendliness =
      worst_case ? 0.0
                 : th::robust_aimd_friendliness(a, b, eps, lv.capacity,
                                                lv.buffer);
  r.fairness = 1.0;
  r.convergence = th::robust_aimd_convergence(b);
  r.robustness = th::robust_aimd_robustness(eps);
  r.latency_avoidance = worst_case ? kInf : loss_based_latency(lv);
  return r;
}

std::vector<Table1Entry> build_table1(const core::EvalConfig& cfg, long jobs) {
  // Each row is an independent (theory, measurement) cell; the task builds
  // its own protocol instance, so nothing is shared across worker threads.
  return parallel_map(
      std::size_t{6},
      [&](std::size_t row) -> Table1Entry {
        TELEMETRY_SPAN("exp.table1", "row" + std::to_string(row));
        TELEMETRY_COUNT("exp.table1.rows", 1);
        switch (row) {
          case 0: {
            const cc::Aimd proto(1.0, 0.5);
            return Table1Entry{proto.name(), aimd_theory(1.0, 0.5, cfg, false),
                               aimd_theory(1.0, 0.5, cfg, true),
                               core::evaluate_protocol(proto, cfg)};
          }
          case 1: {
            const cc::Mimd proto(1.01, 0.875);
            return Table1Entry{proto.name(),
                               mimd_theory(1.01, 0.875, cfg, false),
                               mimd_theory(1.01, 0.875, cfg, true),
                               core::evaluate_protocol(proto, cfg)};
          }
          case 2: {
            // IIAD: inverse-increase additive-decrease, BIN(k=1, l=0).
            const cc::Binomial proto(1.0, 1.0, 1.0, 0.0);
            return Table1Entry{proto.name(),
                               bin_theory(1.0, 1.0, 1.0, 0.0, cfg, false),
                               bin_theory(1.0, 1.0, 1.0, 0.0, cfg, true),
                               core::evaluate_protocol(proto, cfg)};
          }
          case 3: {
            // SQRT: BIN(k=l=0.5).
            const cc::Binomial proto(1.0, 0.5, 0.5, 0.5);
            return Table1Entry{proto.name(),
                               bin_theory(1.0, 0.5, 0.5, 0.5, cfg, false),
                               bin_theory(1.0, 0.5, 0.5, 0.5, cfg, true),
                               core::evaluate_protocol(proto, cfg)};
          }
          case 4: {
            const cc::Cubic proto(0.4, 0.8);
            return Table1Entry{proto.name(), cubic_theory(0.4, 0.8, cfg, false),
                               cubic_theory(0.4, 0.8, cfg, true),
                               core::evaluate_protocol(proto, cfg)};
          }
          default: {
            const cc::RobustAimd proto(1.0, 0.8, 0.01);
            return Table1Entry{proto.name(),
                               robust_aimd_theory(1.0, 0.8, 0.01, cfg, false),
                               robust_aimd_theory(1.0, 0.8, 0.01, cfg, true),
                               core::evaluate_protocol(proto, cfg)};
          }
        }
      },
      jobs);
}

}  // namespace axiomcc::exp
