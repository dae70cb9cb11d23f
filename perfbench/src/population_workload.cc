// population_workload.cc — population: a seeded cohort mix of 2.5·10^5
// senders on the fluid batch path with aggregate traces, sharded over
// util/task_pool with jobs <= nproc.
//
// One op is one population study: the same population run once without
// injected loss, which takes the uniform-cohort fast path (O(cohorts) work
// per step plus the serial aggregate fold), and once under a stateful
// BernoulliLoss, which takes the materialised O(n)-per-step sharded path;
// the op alternates which case runs first. The population is five batchable
// families (SoA BatchProtocol kernels) plus one stateful fallback family
// (CUBIC, per-sender virtual dispatch), so this is the only workload that
// drives the kernels, the aggregate fold and the task pool — and its two
// halves use one tick loop in two ways, so a gain for one that costs the
// other shows. The core estimators and the packet kernel stay idle.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/batch.h"
#include "cc/registry.h"
#include "core/evaluator.h"
#include "fluid/loss_model.h"
#include "fluid/sim.h"
#include "util/rng.h"
#include "util/task_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace axiomcc;

namespace {

constexpr long kSenders = 250000;
constexpr long kShortSenders = 40000;
constexpr long kUniformSteps = 1000;
constexpr long kMaterializedSteps = 40;
/// The jobs=1 vs jobs=N cross-check population: just above the batch
/// path's two-chunk threshold (2 × 16384), so the pool is really used.
constexpr long kCrossCheckSenders = 40000;
/// Share of the population in the stateful fallback cohort.
constexpr double kFallbackShare = 0.05;

struct Cohort {
  std::string spec;
  std::string family;
  std::unique_ptr<cc::Protocol> protocol;
  double share = 0.0;
  double initial_window = 1.0;
};

class PopulationWorkload final : public Workload {
 public:
  PopulationWorkload(long jobs, bool short_mode)
      : jobs_(jobs), senders_(short_mode ? kShortSenders : kSenders),
        short_mode_(short_mode) {}

  void setup(std::uint64_t seed) override {
    Rng rng(seed ^ 0x706f70756c6174ull);
    const auto u = [&rng](double lo, double hi) { return rng.uniform(lo, hi); };
    std::vector<Cohort> cohorts;
    const auto add = [&](std::string spec, const char* family) {
      Cohort c;
      c.spec = std::move(spec);
      c.family = family;
      c.share = u(1.0, 2.0);  // normalised below
      c.initial_window = u(1.0, 10.0);
      cohorts.push_back(std::move(c));
    };
    add(spec_of("aimd", {u(0.5, 2.0), u(0.3, 0.9)}, 4), "aimd");
    add(spec_of("mimd", {u(1.005, 1.05), u(0.5, 0.95)}, 4), "mimd");
    add(spec_of("robust_aimd", {u(0.5, 2.0), u(0.5, 0.9), u(0.002, 0.02)}, 4),
        "robust_aimd");
    add(spec_of("bin", {u(0.5, 2.0), u(0.3, 1.0), u(0.0, 1.5), u(0.0, 1.0)}, 4),
        "bin");
    add(spec_of("highspeed", {u(20.0, 50.0), u(5e4, 1e5), u(0.05, 0.3)}, 4),
        "highspeed");
    add(spec_of("cubic", {u(0.2, 0.8), u(0.6, 0.9)}, 4), "cubic");
    double batch_weight = 0.0;
    for (std::size_t i = 0; i + 1 < cohorts.size(); ++i) {
      batch_weight += cohorts[i].share;
    }
    for (std::size_t i = 0; i + 1 < cohorts.size(); ++i) {
      cohorts[i].share *= (1.0 - kFallbackShare) / batch_weight;
    }
    cohorts.back().share = kFallbackShare;
    for (Cohort& c : cohorts) c.protocol = cc::make_protocol(c.spec);

    // Link sized per sender, so windows stay in the same range at any n.
    const double mss_per_sender = u(5.0, 20.0);
    const double rtt_ms = u(20.0, 80.0);
    const double buffer_share = u(0.5, 1.5);
    const double loss_prob = u(0.02, 0.1);
    const double loss_rate = u(0.005, 0.02);
    const std::uint64_t loss_seed = rng();

    std::vector<std::string> specs;
    for (const Cohort& c : cohorts) specs.push_back(c.spec);
    if (specs != specs_) reference_.fill(std::nullopt);
    specs_ = std::move(specs);
    cohorts_ = std::move(cohorts);
    mss_per_sender_ = mss_per_sender;
    rtt_ms_ = rtt_ms;
    buffer_share_ = buffer_share;
    loss_prob_ = loss_prob;
    loss_rate_ = loss_rate;
    loss_seed_ = loss_seed;
  }

  [[nodiscard]] std::size_t inputs() const override { return 1; }

  void run_op(std::size_t /*input*/, long round, Spans& spans) override {
    const bool materialized_first = round % 2 == 1;
    for (int k = 0; k < 2; ++k) {
      const bool materialized = (k == 0) == materialized_first;
      const long steps = materialized ? kMaterializedSteps : kUniformSteps;
      fluid::Trace trace = [&] {
        const Span span(spans, "fluid",
                        materialized ? "fluid.materialized_run"
                                     : "fluid.uniform_run");
        return run_population(senders_, steps, materialized, jobs_);
      }();
      spans.count(materialized ? "fluid.materialized.cells"
                               : "fluid.uniform.cells",
                  static_cast<double>(senders_ * steps));
      check_and_record(trace, materialized);
    }
  }

  void finish(CheckTally& tally) override {
    // jobs=1 must match jobs=N bit for bit on the materialised path.
    tally.run("jobs=1 vs jobs=" + std::to_string(jobs_), [&] {
      const std::uint64_t serial = trace_digest(
          run_population(kCrossCheckSenders, kMaterializedSteps, true, 1));
      const std::uint64_t sharded = trace_digest(run_population(
          kCrossCheckSenders, kMaterializedSteps, true, jobs_));
      check(serial == sharded, "jobs=1 and jobs=" + std::to_string(jobs_) +
                                   " aggregate traces differ");
    });
  }

  [[nodiscard]] double sender_steps(std::size_t /*input*/) const override {
    return sender_steps_[0] + sender_steps_[1];
  }

  void probe_layers(Spans& spans) override {
    // util: the materialised half at jobs=1 and at jobs=N, alternating.
    const int reps = short_mode_ ? 1 : 2;
    for (int r = 0; r < reps; ++r) {
      for (const long jobs : {1L, jobs_}) {
        std::uint64_t d = 0;
        {
          const Span span(spans, "util",
                          jobs == 1 ? "util.materialized_jobs1"
                                    : "util.materialized_jobsN");
          d = trace_digest(
              run_population(senders_, kMaterializedSteps, true, jobs));
        }
        check(d == *reference_[1],
              "materialised run at jobs=" + std::to_string(jobs) +
                  " differs from the timed ops");
        spans.drain();
      }
    }

    // fluid: the stateful loss injector's per-sender sample.
    {
      fluid::BernoulliLoss loss(loss_prob_, loss_rate_, loss_seed_);
      const long calls = short_mode_ ? 1000000 : 20000000;
      double sink = 0.0;
      {
        const Span span(spans, "fluid", "fluid.loss_sample");
        for (long c = 0; c < calls; ++c) {
          sink += loss.sample(c / senders_, static_cast<int>(c % senders_));
        }
      }
      check(sink >= 0.0, "loss samples must be non-negative");
      spans.count("fluid.loss_sample.calls", static_cast<double>(calls));
      spans.drain();
    }

    // cc: each batchable family's kernel on a span of its cohort's size,
    // and the fallback family's scalar next_window.
    const long min_cells = short_mode_ ? 1000000 : 10000000;
    for (const Cohort& c : cohorts_) {
      const cc::BatchProtocol* kernel = c.protocol->batch_kernel();
      if (kernel == nullptr) {
        const fluid::Trace trace =
            core::run_shared_link(*c.protocol, core::EvalConfig{});
        probe_scalar_protocol(c.family, *c.protocol, trace, 0, spans,
                              short_mode_ ? 20000 : 400000);
        continue;
      }
      const auto n = static_cast<std::size_t>(cohort_size(c, senders_));
      std::vector<double> window(n), loss(n), rtt(n, rtt_ms_ / 1e3), out(n);
      std::vector<double> state(n * static_cast<std::size_t>(
                                        kernel->state_size()));
      for (std::size_t i = 0; i < n; ++i) {
        window[i] = 1.0 + static_cast<double>(i % 97);
        loss[i] = i % 7 == 0 ? loss_rate_ : 0.0;
      }
      for (std::size_t i = 0; i < n; ++i) {
        const auto size = static_cast<std::size_t>(kernel->state_size());
        kernel->init_state(std::span<double>(state.data() + i * size, size));
      }
      long cells = 0;
      {
        const Span span(spans, "cc", "cc.batch." + c.family);
        while (cells < min_cells) {
          kernel->next_window_batch(window, loss, rtt, state, out);
          cells += static_cast<long>(n);
        }
      }
      check(std::all_of(out.begin(), out.end(),
                        [](double w) { return !std::isnan(w); }),
            "batch kernel of " + c.family + " produced NaN");
      spans.count("cc.batch." + c.family + ".cells",
                  static_cast<double>(cells));
      spans.drain();
    }
  }

  void layer_metrics(const SpanSummary& s, const Spans& spans,
                     LayerValues& out) const override {
    const auto per = [&](const char* span, const char* count, double scale) {
      const double n = spans.counted(count);
      return n > 0 ? s.seconds(span) * scale / n : 0.0;
    };
    out["fluid.uniform_ns_per_cell"] =
        per("fluid.uniform_run", "fluid.uniform.cells", 1e9);
    out["fluid.materialized_ns_per_cell"] =
        per("fluid.materialized_run", "fluid.materialized.cells", 1e9);
    out["fluid.loss_sample_ns"] =
        per("fluid.loss_sample", "fluid.loss_sample.calls", 1e9);
    for (const Cohort& c : cohorts_) {
      if (c.protocol->batch_kernel() == nullptr) continue;
      out["cc.batch." + c.family + "_ns_per_cell"] =
          per(("cc.batch." + c.family).c_str(),
              ("cc.batch." + c.family + ".cells").c_str(), 1e9);
    }
    scalar_protocol_metrics(s, spans, out);
    const double serial = s.seconds("util.materialized_jobs1");
    const double sharded = s.seconds("util.materialized_jobsN");
    if (serial > 0 && sharded > 0) {
      out["util.parallel_speedup"] = serial / sharded;
    }
  }

  [[nodiscard]] std::uint64_t digest() const override {
    Digest d;
    for (const std::string& spec : specs_) d.add(spec);
    for (const auto& r : reference_) d.add(r.value_or(0));
    return d.value();
  }

  [[nodiscard]] std::vector<std::string> notes() const override {
    std::string mix;
    for (const Cohort& c : cohorts_) {
      char share[32];
      std::snprintf(share, sizeof share, " %.1f%% ", 100.0 * c.share);
      mix += share + c.spec;
    }
    // Per-sender arrays of the materialised path: seven doubles per sender
    // (windows, next windows, observed loss, loss and RTT buffers, pending
    // max loss and RTT sums) plus each kernel's per-sender state.
    double bytes = 7.0 * 8.0 * static_cast<double>(senders_);
    for (const Cohort& c : cohorts_) {
      if (const cc::BatchProtocol* k = c.protocol->batch_kernel()) {
        bytes += 8.0 * k->state_size() *
                 static_cast<double>(cohort_size(c, senders_));
      }
    }
    char footprint[160];
    std::snprintf(footprint, sizeof footprint,
                  "materialised per-sender arrays: %.1f MiB (L2 8 MiB, 2 MiB "
                  "per core; L3 105 MiB shared); uniform path: O(cohorts)",
                  bytes / (1024.0 * 1024.0));
    char shape[200];
    std::snprintf(shape, sizeof shape,
                  "senders %ld, uniform %ld steps, materialised %ld steps "
                  "(BernoulliLoss p=%.4g rate=%.4g), jobs %ld",
                  senders_, kUniformSteps, kMaterializedSteps, loss_prob_,
                  loss_rate_, jobs_);
    return {"cohorts:" + mix, shape, footprint};
  }

 private:
  /// Senders of cohort `c` in a population of `n`; the fallback cohort
  /// takes the rounding remainder.
  [[nodiscard]] long cohort_size(const Cohort& c, long n) const {
    if (&c != &cohorts_.back()) {
      return static_cast<long>(c.share * static_cast<double>(n));
    }
    long rest = n;
    for (std::size_t i = 0; i + 1 < cohorts_.size(); ++i) {
      rest -= cohort_size(cohorts_[i], n);
    }
    return rest;
  }

  [[nodiscard]] fluid::Trace run_population(long n, long steps,
                                            bool materialized,
                                            long jobs) const {
    const double capacity = mss_per_sender_ * static_cast<double>(n);
    // make_link_mbps takes Mbps, RTT ms and buffer MSS; one MSS is 1500 B.
    const double mbps = capacity * 1500.0 * 8.0 / (rtt_ms_ / 1e3) / 1e6;
    fluid::SimOptions options;
    options.steps = steps;
    options.batch = true;
    options.jobs = jobs;
    options.trace_detail = fluid::TraceDetail::kAggregate;
    fluid::FluidSimulation sim(
        fluid::make_link_mbps(mbps, rtt_ms_, buffer_share_ * capacity),
        options);
    for (const Cohort& c : cohorts_) {
      sim.add_senders(*c.protocol, cohort_size(c, n), c.initial_window);
    }
    if (materialized) {
      sim.set_loss_injector(std::make_unique<fluid::BernoulliLoss>(
          loss_prob_, loss_rate_, loss_seed_));
    }
    return sim.run();
  }

  static std::uint64_t trace_digest(const fluid::Trace& t) {
    Digest d;
    d.add(t.total_window());
    d.add(t.window_min());
    d.add(t.window_max());
    d.add(t.window_mean());
    d.add(t.active_senders());
    d.add(t.rtt_seconds());
    d.add(t.congestion_loss());
    for (const int id : t.tracked_senders()) {
      d.add(t.windows(id));
      d.add(t.observed_loss(id));
    }
    return d.value();
  }

  void check_and_record(const fluid::Trace& t, bool materialized) {
    const long steps = materialized ? kMaterializedSteps : kUniformSteps;
    check(static_cast<long>(t.num_steps()) == steps,
          "population trace has the wrong step count");
    check(std::none_of(t.total_window().begin(), t.total_window().end(),
                       [](double w) { return std::isnan(w); }),
          "population trace has a NaN aggregate window");
    const std::uint64_t d = trace_digest(t);
    auto& ref = reference_[materialized ? 1 : 0];
    if (!ref) ref = d;
    check(*ref == d, std::string(materialized ? "materialised" : "uniform") +
                         " aggregate trace differs from its first run");
    double active = 0.0;
    for (const long a : t.active_senders()) active += static_cast<double>(a);
    sender_steps_[materialized ? 1 : 0] = active;
  }

  long jobs_;
  long senders_;
  bool short_mode_;
  std::vector<std::string> specs_;
  std::vector<Cohort> cohorts_;
  double mss_per_sender_ = 10.0;
  double rtt_ms_ = 42.0;
  double buffer_share_ = 1.0;
  double loss_prob_ = 0.05;
  double loss_rate_ = 0.01;
  std::uint64_t loss_seed_ = 1;
  std::array<std::optional<std::uint64_t>, 2> reference_;
  std::array<double, 2> sender_steps_{};
};

}  // namespace

std::unique_ptr<Workload> make_population_workload(long jobs,
                                                   bool short_mode) {
  return std::make_unique<PopulationWorkload>(jobs, short_mode);
}

}  // namespace perfbench
