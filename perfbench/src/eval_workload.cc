// eval_workload.cc — eval-fluid and eval-packet: one op is one
// core::evaluate_protocol call, the paper's own task (one protocol's point
// in the 8-metric space).
//
// eval-fluid evaluates Table 1's six protocols plus one seeded
// parameterisation of every registry family, stateful ones included, on the
// fluid backend: the scalar tick loop, virtual cc dispatch, the core
// estimators and the serial robustness search. The batch and packet paths
// stay idle. eval-packet evaluates Table 1's six (parameters jittered by the
// seed) plus a seeded Vegas on the packet backend under the default
// PacketLimits, so the same core orchestration spends its time in the sim
// event kernel.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/registry.h"
#include "core/evaluator.h"
#include "core/metrics.h"
#include "sim/dumbbell.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace axiomcc;

namespace {

/// Delegates to a wrapped protocol and counts clones: every sender of every
/// backend run is one clone of the prototype, which is how the benchmark
/// counts backend runs and sender-steps inside evaluate_protocol. Used only
/// in the untimed reference pass.
class CountingProtocol final : public cc::Protocol {
 public:
  CountingProtocol(std::unique_ptr<cc::Protocol> inner,
                   std::shared_ptr<long> clones)
      : inner_(std::move(inner)), clones_(std::move(clones)) {}

  double next_window(const cc::Observation& obs) override {
    return inner_->next_window(obs);
  }
  [[nodiscard]] bool loss_based() const override {
    return inner_->loss_based();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    ++*clones_;
    return std::make_unique<CountingProtocol>(inner_->clone(), clones_);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<cc::Protocol> inner_;
  std::shared_ptr<long> clones_;
};

/// The five parts of evaluate_protocol, in its order.
enum Part { kShared, kEstimators, kFastUtil, kRobustness, kFriendliness };
constexpr const char* kPartSpans[] = {"core.shared_link", "core.estimators",
                                      "core.fast_util", "core.robustness",
                                      "core.friendliness"};

/// evaluate_protocol composed from its public parts, each under a span;
/// `after_part` runs after each part. Must equal evaluate_protocol bit for
/// bit — the traced run checks that on every split op.
core::MetricReport evaluate_by_parts(
    const cc::Protocol& p, const core::EvalConfig& cfg, const Spans& spans,
    const std::function<void(Part)>& after_part = {}) {
  core::MetricReport r;
  const auto done = [&](Part part) {
    if (after_part) after_part(part);
  };
  std::optional<fluid::Trace> shared;
  {
    const Span span(spans, "core", kPartSpans[kShared]);
    shared.emplace(core::run_shared_link(p, cfg));
  }
  done(kShared);
  {
    const Span span(spans, "core", kPartSpans[kEstimators]);
    const core::EstimatorConfig est = cfg.estimator();
    r.efficiency = core::measure_efficiency(*shared, est);
    r.loss_avoidance = core::measure_loss_avoidance(*shared, est);
    r.fairness = core::measure_fairness(*shared, est);
    r.convergence = core::measure_convergence(*shared, est);
    r.latency_avoidance = core::measure_latency_avoidance(*shared, est);
  }
  done(kEstimators);
  {
    const Span span(spans, "core", kPartSpans[kFastUtil]);
    r.fast_utilization = core::measure_fast_utilization_score(p, cfg);
  }
  done(kFastUtil);
  {
    const Span span(spans, "core", kPartSpans[kRobustness]);
    r.robustness = core::measure_robustness_score(p, cfg);
  }
  done(kRobustness);
  {
    const Span span(spans, "core", kPartSpans[kFriendliness]);
    r.tcp_friendliness = core::measure_tcp_friendliness_score(p, cfg);
  }
  done(kFriendliness);
  return r;
}

std::uint64_t report_digest(const core::MetricReport& r) {
  Digest d;
  for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
    d.add(r.get(static_cast<core::Metric>(m)));
  }
  return d.value();
}

void check_report(const core::MetricReport& r) {
  for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
    const auto metric = static_cast<core::Metric>(m);
    check(!std::isnan(r.get(metric)),
          std::string("NaN score: ") + core::metric_name(metric));
  }
}

std::string family_of(const std::string& spec) {
  return spec.substr(0, spec.find('('));
}

/// Table 1's six protocols (the paper's rows).
const std::vector<std::string>& table1() {
  static const std::vector<std::string> rows = {
      "aimd(1,0.5)",      "mimd(1.01,0.875)",   "bin(1,1,1,0)",
      "bin(1,1,0.5,0.5)", "cubic(0.4,0.8)",     "robust_aimd(1,0.8,0.01)"};
  return rows;
}

/// Table 1's six with every parameter scaled by U[0.98, 1.02] (domain
/// edges kept: BIN's b <= 1, MIMD's increase stays above 1).
std::vector<std::string> jittered_table1(Rng& rng) {
  const auto j = [&rng](double x) { return x * rng.uniform(0.98, 1.02); };
  const auto b = [&j] { return std::min(1.0, j(1.0)); };
  return {
      spec_of("aimd", {j(1.0), j(0.5)}, 6),
      spec_of("mimd", {1.0 + j(0.01), j(0.875)}, 6),
      spec_of("bin", {j(1.0), b(), j(1.0), 0.0}, 6),
      spec_of("bin", {j(1.0), b(), j(0.5), j(0.5)}, 6),
      spec_of("cubic", {j(0.4), j(0.8)}, 6),
      spec_of("robust_aimd", {j(1.0), j(0.8), j(0.01)}, 6),
  };
}

/// One seeded parameterisation of every registry family, drawn from ranges
/// inside each family's domain.
std::vector<std::string> seeded_families(Rng& rng) {
  const auto u = [&rng](double lo, double hi) { return rng.uniform(lo, hi); };
  std::vector<std::string> out;
  out.push_back(spec_of("aimd", {u(0.5, 2.0), u(0.3, 0.9)}, 4));
  out.push_back(spec_of("mimd", {u(1.005, 1.05), u(0.5, 0.95)}, 4));
  out.push_back(spec_of(
      "bin", {u(0.5, 2.0), u(0.3, 1.0), u(0.0, 1.5), u(0.0, 1.0)}, 4));
  out.push_back(spec_of("cubic", {u(0.2, 0.8), u(0.6, 0.9)}, 4));
  out.push_back(
      spec_of("robust_aimd", {u(0.5, 2.0), u(0.5, 0.9), u(0.002, 0.02)}, 4));
  const double alpha = u(1.0, 3.0);
  out.push_back(spec_of("vegas", {alpha, alpha + u(1.0, 3.0)}, 4));
  out.push_back(spec_of("pcc", {u(0.02, 0.1), u(0.02, 0.1)}, 4));
  // BBR's two parameters are filter window lengths that set its per-call
  // cost (O(window)); they stay at their defaults so seeds stay comparable.
  out.push_back("bbr");
  out.push_back(spec_of("cautious", {u(0.5, 2.0), u(0.7, 0.95)}, 4));
  out.push_back(
      spec_of("highspeed", {u(20.0, 50.0), u(5e4, 1e5), u(0.05, 0.3)}, 4));
  out.push_back(spec_of("westwood", {u(0.5, 2.0), u(0.1, 0.5)}, 4));
  out.push_back("illinois");
  out.push_back(spec_of("veno", {u(2.0, 4.0), u(0.6, 0.9)}, 4));
  return out;
}

class EvalWorkload final : public Workload {
 public:
  EvalWorkload(bool packet, bool short_mode)
      : packet_(packet), short_mode_(short_mode) {
    if (packet_) cfg_.backend = engine::BackendKind::kPacket;
  }

  void setup(std::uint64_t seed) override {
    Rng rng(seed ^ (packet_ ? 0x7061636b6574ull : 0x666c756964ull));
    std::vector<std::string> specs = packet_ ? jittered_table1(rng) : table1();
    if (packet_) {
      // A seventh, delay-based row (Vegas): it exercises the packet
      // sender's RTT sampling, and an odd input count keeps op_s_p50 inside
      // one input's cluster of op times instead of between two.
      const double alpha = rng.uniform(1.0, 3.0);
      specs.push_back(
          spec_of("vegas", {alpha, alpha + rng.uniform(1.0, 3.0)}, 4));
    } else {
      const std::vector<std::string> extra = seeded_families(rng);
      specs.insert(specs.end(), extra.begin(), extra.end());
    }
    protocols_.clear();
    for (const std::string& spec : specs) {
      protocols_.push_back(cc::make_protocol(spec));
    }
    // A repeated set-up keeps the reference outputs, so the warm-up op of
    // every set-up pass is checked against the first.
    if (specs != specs_) {
      specs_ = std::move(specs);
      reference_.assign(specs_.size(), std::nullopt);
      steps_.assign(specs_.size(), 0.0);
      runs_.assign(specs_.size(), 0.0);
    }
  }

  [[nodiscard]] std::size_t inputs() const override { return specs_.size(); }

  void run_op(std::size_t i, long round, Spans& spans) override {
    const cc::Protocol& p = *protocols_[i];
    core::MetricReport r;
    // The traced run alternates the whole call with its parts, per input
    // and per round, so core.covered_frac compares the two on the same
    // inputs at the same time.
    if (spans.enabled() && (round + static_cast<long>(i)) % 2 == 1) {
      r = evaluate_by_parts(p, cfg_, spans);
      spans.count("core.split_ops", 1.0);
    } else {
      const Span span(spans, "core", "core.evaluate_protocol");
      r = core::evaluate_protocol(p, cfg_);
    }
    check_report(r);
    const std::uint64_t d = report_digest(r);
    if (!reference_[i]) reference_[i] = d;
    check(*reference_[i] == d,
          "evaluation of " + specs_[i] + " differs from its first run");
  }

  void finish(CheckTally& tally) override {
    // Reference pass: each protocol once more through the parts, wrapped to
    // count clones. Checks the parts reproduce evaluate_protocol exactly and
    // yields the backend runs and sender-steps an op simulates.
    const Spans off(false);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      tally.run("parts of " + specs_[i], [&] {
        auto clones = std::make_shared<long>(0);
        const CountingProtocol counted(protocols_[i]->clone(), clones);
        long at[5] = {};
        const core::MetricReport r =
            evaluate_by_parts(counted, cfg_, off,
                              [&](Part part) { at[part] = *clones; });
        check_report(r);
        const std::uint64_t d = report_digest(r);
        if (!reference_[i]) reference_[i] = d;
        check(*reference_[i] == d, "parts of " + specs_[i] +
                                       " differ from evaluate_protocol");
        account(i, at);
      });
    }
  }

  [[nodiscard]] double sender_steps(std::size_t i) const override {
    return steps_[i];
  }

  void probe_layers(Spans& spans) override {
    if (packet_) {
      probe_dumbbell(spans);
      return;
    }
    // Scalar next_window per family, replaying each protocol's own shared-
    // link observations (Table 1's rows come first, so they stand for their
    // families).
    std::vector<std::string> seen;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const std::string family = family_of(specs_[i]);
      if (std::find(seen.begin(), seen.end(), family) != seen.end()) continue;
      seen.push_back(family);
      const fluid::Trace trace = core::run_shared_link(*protocols_[i], cfg_);
      probe_scalar_protocol(family, *protocols_[i], trace, 0, spans,
                            short_mode_ ? 20000 : 400000);
    }
  }

  void layer_metrics(const SpanSummary& s, const Spans& spans,
                     LayerValues& out) const override {
    const double split = spans.counted("core.split_ops");
    double split_total = 0.0;
    for (const char* name : kPartSpans) split_total += s.seconds(name);
    if (split > 0) {
      out["core.shared_link_s"] = s.seconds("core.shared_link") / split;
      out["core.estimators_s"] = s.seconds("core.estimators") / split;
      out["core.fast_util_s"] = s.seconds("core.fast_util") / split;
      out["core.robustness_s"] = s.seconds("core.robustness") / split;
      out["core.friendliness_s"] = s.seconds("core.friendliness") / split;
    }
    const long whole = s.spans("core.evaluate_protocol");
    if (split > 0 && whole > 0) {
      out["core.covered_frac"] =
          (split_total / split) /
          (s.seconds("core.evaluate_protocol") / static_cast<double>(whole));
    }
    double runs = 0.0;
    for (const double r : runs_) runs += r;
    out["core.backend_runs"] = runs / static_cast<double>(runs_.size());
    if (packet_) {
      const double events = spans.counted("sim.dumbbell.events");
      const double seconds = s.seconds("sim.dumbbell_run");
      const long n = s.spans("sim.dumbbell_run");
      if (n > 0) {
        out["sim.dumbbell_run_s"] = seconds / static_cast<double>(n);
        out["sim.events"] = events / static_cast<double>(n);
        out["sim.events_per_s"] = events / seconds;
      }
    } else {
      // The shared-link run is one scalar fluid run of num_senders senders.
      const double cells = split * static_cast<double>(cfg_.num_senders) *
                           static_cast<double>(cfg_.steps);
      if (cells > 0) {
        out["fluid.scalar_ns_per_cell"] =
            s.seconds("core.shared_link") * 1e9 / cells;
      }
      scalar_protocol_metrics(s, spans, out);
    }
  }

  [[nodiscard]] std::uint64_t digest() const override {
    Digest d;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      d.add(specs_[i]);
      d.add(reference_[i].value_or(0));
    }
    return d.value();
  }

  [[nodiscard]] std::vector<std::string> notes() const override {
    std::string list;
    for (const std::string& spec : specs_) {
      list += (list.empty() ? "" : " ") + spec;
    }
    return {"protocols (" + std::to_string(specs_.size()) + "): " + list,
            std::string("backend: ") + (packet_ ? "packet" : "fluid") +
                ", link 30 Mbps / 42 ms / 100 MSS"};
  }

 private:
  /// Effective horizons of the four scenarios, as EvalConfig documents
  /// them: the packet backend clamps each by its PacketLimits.
  [[nodiscard]] long horizon(long fluid, long packet_clamp) const {
    return packet_ ? std::min(fluid, packet_clamp) : fluid;
  }

  void account(std::size_t i, const long at[5]) {
    const double n_p = cfg_.num_protocol_senders;
    const double n_q = cfg_.num_reno_senders;
    const double shared = static_cast<double>(at[kShared]);
    const double fast = static_cast<double>(at[kFastUtil] - at[kEstimators]);
    const double robust =
        static_cast<double>(at[kRobustness] - at[kFastUtil]);
    const double mixed =
        static_cast<double>(at[kFriendliness] - at[kRobustness]);
    const double s_shared = horizon(cfg_.steps, cfg_.packet.max_steps);
    const double s_fast = horizon(cfg_.fast_utilization_steps,
                                  cfg_.packet.fast_utilization_steps);
    const double s_robust =
        horizon(cfg_.robustness_steps, cfg_.packet.robustness_steps);
    runs_[i] = shared / cfg_.num_senders + fast + robust + mixed / n_p;
    steps_[i] = shared * s_shared + fast * s_fast + robust * s_robust +
                mixed * (n_p + n_q) / n_p * s_shared;
  }

  /// The shared-link scenario of each protocol run directly on
  /// sim::DumbbellExperiment, reading the event kernel's own count.
  void probe_dumbbell(Spans& spans) const {
    sim::DumbbellConfig dc = sim::dumbbell_config_from_link(cfg_.link);
    const long steps = short_mode_ ? 100 : horizon(cfg_.steps,
                                                   cfg_.packet.max_steps);
    dc.duration_seconds = dc.rtt_ms / 1e3 * static_cast<double>(steps);
    dc.max_window_mss = cfg_.packet.max_window_mss;
    const double capacity = fluid::FluidLink(cfg_.link).capacity_mss();
    for (const auto& protocol : protocols_) {
      sim::DumbbellExperiment exp(dc);
      for (int k = 0; k < cfg_.num_senders; ++k) {
        exp.add_flow(protocol->clone(), 0.0,
                     1.0 + capacity * k / (2.0 * cfg_.num_senders));
      }
      {
        const Span span(spans, "sim", "sim.dumbbell_run");
        exp.run();
      }
      spans.count("sim.dumbbell.events",
                  static_cast<double>(exp.simulator().events_processed()));
      spans.drain();
    }
  }

  bool packet_;
  bool short_mode_;
  core::EvalConfig cfg_;
  std::vector<std::string> specs_;
  std::vector<std::unique_ptr<cc::Protocol>> protocols_;
  std::vector<std::optional<std::uint64_t>> reference_;
  std::vector<double> steps_;
  std::vector<double> runs_;
};

}  // namespace

const std::vector<std::string>& scalar_families() {
  static const std::vector<std::string> families = {
      "aimd", "mimd",     "bin",       "cubic",     "robust_aimd",
      "vegas", "pcc",     "bbr",       "cautious",  "highspeed",
      "westwood", "illinois", "veno"};
  return families;
}

void probe_scalar_protocol(const std::string& family,
                           const cc::Protocol& protocol,
                           const fluid::Trace& trace, int sender,
                           Spans& spans, long min_calls) {
  const auto windows = trace.windows(sender);
  const auto losses = trace.observed_loss(sender);
  const auto rtts = trace.rtt_seconds();
  std::vector<cc::Observation> obs(windows.size());
  for (std::size_t t = 0; t < obs.size(); ++t) {
    obs[t] = cc::Observation{windows[t], losses[t], rtts[t]};
  }
  std::unique_ptr<cc::Protocol> p = protocol.clone();
  double sink = 0.0;
  long calls = 0;
  {
    const Span span(spans, "cc", "cc.scalar." + family);
    while (calls < min_calls) {
      for (const cc::Observation& o : obs) sink += p->next_window(o);
      calls += static_cast<long>(obs.size());
    }
  }
  check(!std::isnan(sink), "scalar probe of " + family + " produced NaN");
  spans.count("cc.scalar." + family + ".calls", static_cast<double>(calls));
  spans.drain();
}

void scalar_protocol_metrics(const SpanSummary& summary, const Spans& spans,
                             LayerValues& out) {
  for (const std::string& family : scalar_families()) {
    const double calls = spans.counted("cc.scalar." + family + ".calls");
    if (calls > 0) {
      out["cc.scalar." + family + "_ns_per_call"] =
          summary.seconds("cc.scalar." + family) * 1e9 / calls;
    }
  }
}

std::unique_ptr<Workload> make_eval_workload(bool packet, bool short_mode) {
  return std::make_unique<EvalWorkload>(packet, short_mode);
}

}  // namespace perfbench
