// fluid_batch_test.cc — the cohort tick loop against the reference oracle.
//
// The contract under test (src/cc/batch.h, src/fluid/sim.h): for every
// protocol family, at any population size, across churn and injected loss,
// FluidSimulation — SoA kernels, per-member fallback dispatch, uniform
// representatives — produces a byte-identical Trace to the plain
// per-sender loop in tests/fluid_reference.h. Every configuration also runs
// with a pass-through step monitor, which forces the cohort loop and stores
// every member: without it FluidSimulation picks its own loop and cohort
// width.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/registry.h"
#include "cc/slow_start.h"
#include "fluid/loss_model.h"
#include "fluid/sim.h"
#include "fluid_reference.h"

namespace axiomcc {
namespace {

using fluid::FluidSimulation;
using fluid::LinkParams;
using fluid::ReferenceGroup;
using fluid::SenderSpec;
using fluid::SimOptions;
using fluid::Trace;
using fluid::TraceDetail;

// All 13 registry families (kernel families first, then the stateful
// fallbacks that dispatch per member inside their cohorts).
const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs{
      "aimd(1,0.5)",
      "mimd(1.01,0.875)",
      "bin(1,1,1,0.5)",
      "robust_aimd(1,0.8,0.01)",
      "highspeed",
      "cubic(0.4,0.8)",
      "vegas(2,4)",
      "veno",
      "illinois",
      "westwood",
      "bbr",
      "pcc",
      "cautious",
  };
  return specs;
}

struct RunConfig {
  int n = 7;
  long steps = 120;
  bool churn = false;          ///< splits the population into join/leave cohorts
  bool injected_loss = false;  ///< Bernoulli episodes (stateful injector)
  TraceDetail detail = TraceDetail::kFull;
  int tracked = 4;
  double mbps = 24.0;  ///< link bandwidth; buffer and RTT stay fixed
  /// The robustness probe's setup: >= 0 installs ConstantLoss(rate), a
  /// stateless injector, on core::evaluate_protocol's infinite link.
  double constant_loss = -1.0;
  bool spread = false;  ///< n count-1 groups with spread initial windows
  const cc::Protocol* partner = nullptr;  ///< one count-1 group after P's
  long partner_start = 0;
  long partner_stop = -1;
};

// Small link so windows hit droptail loss quickly at any population size.
LinkParams test_link(double mbps = 24.0) {
  return fluid::make_link_mbps(mbps, 40.0, 60.0);
}

// core::evaluate_protocol's fluid "infinite" link: 10^15 MSS/s and a
// 10^15 MSS buffer, so a lone probe never sees congestion loss.
LinkParams infinite_link() {
  LinkParams link = fluid::make_link_mbps(30.0, 42.0, 1e15);
  link.bandwidth = Bandwidth::from_mss_per_sec(1e15);
  return link;
}

LinkParams config_link(const RunConfig& cfg) {
  return cfg.constant_loss >= 0.0 ? infinite_link() : test_link(cfg.mbps);
}

/// Which loop runs a configuration.
enum class Runner {
  kReference,     ///< tests/fluid_reference.h
  kSimulation,    ///< FluidSimulation, free to pick its loop and width
  kMaterialized,  ///< FluidSimulation with a pass-through step monitor,
                  ///< which forces the cohort loop and stores every member
};

Trace run_config(const cc::Protocol& prototype, const RunConfig& cfg,
                 Runner runner) {
  SimOptions options;
  options.steps = cfg.steps;
  options.trace_detail = cfg.detail;
  options.tracked_senders = cfg.tracked;

  std::vector<ReferenceGroup> groups;
  const auto cohort = [&](long count, double initial, long start, long stop) {
    if (count <= 0) return;
    groups.push_back(
        {SenderSpec{prototype.clone(), initial, start, stop}, count});
  };
  if (cfg.spread) {
    for (int i = 0; i < cfg.n; ++i) cohort(1, 1.0 + 37.5 * i, 0, -1);
  } else if (cfg.churn && cfg.n >= 3) {
    const long third = cfg.n / 3;
    cohort(third, 2.0, 0, -1);                          // always on
    cohort(third, 1.0, 10, cfg.steps - 20);             // joins then leaves
    cohort(cfg.n - 2 * third, 4.0, cfg.steps / 2, -1);  // late joiner
  } else {
    cohort(cfg.n, 2.0, 0, -1);
  }
  if (cfg.partner != nullptr) {
    groups.push_back({SenderSpec{cfg.partner->clone(), 1.0, cfg.partner_start,
                                 cfg.partner_stop},
                      1});
  }
  std::unique_ptr<fluid::LossInjector> injector;
  if (cfg.injected_loss) {
    injector = std::make_unique<fluid::BernoulliLoss>(0.1, 0.05, 1234);
  } else if (cfg.constant_loss >= 0.0) {
    injector = std::make_unique<fluid::ConstantLoss>(cfg.constant_loss);
  }

  if (runner == Runner::kReference) {
    return fluid::run_reference(config_link(cfg), options, groups,
                                injector.get());
  }
  FluidSimulation sim(config_link(cfg), options);
  for (ReferenceGroup& group : groups) {
    sim.add_senders(std::move(group.spec), group.count);
  }
  if (injector) sim.set_loss_injector(std::move(injector));
  if (runner == Runner::kMaterialized) {
    sim.set_step_monitor([](long, std::span<const double>, double, double) {
      return true;
    });
  }
  return sim.run();
}

void expect_span_identical(std::span<const double> a, std::span<const double> b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << what << ": series differ";
  }
}

void expect_trace_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_senders(), b.num_senders());
  ASSERT_EQ(a.num_steps(), b.num_steps());
  ASSERT_EQ(a.detail(), b.detail());
  expect_span_identical(a.total_window(), b.total_window(), "total_window");
  expect_span_identical(a.rtt_seconds(), b.rtt_seconds(), "rtt_seconds");
  expect_span_identical(a.congestion_loss(), b.congestion_loss(),
                        "congestion_loss");
  ASSERT_EQ(a.tracked_senders().size(), b.tracked_senders().size());
  for (std::size_t j = 0; j < a.tracked_senders().size(); ++j) {
    const int id = a.tracked_senders()[j];
    ASSERT_EQ(id, b.tracked_senders()[j]);
    expect_span_identical(a.windows(id), b.windows(id),
                          "windows[" + std::to_string(id) + "]");
    expect_span_identical(a.observed_loss(id), b.observed_loss(id),
                          "observed_loss[" + std::to_string(id) + "]");
  }
  if (a.detail() == TraceDetail::kAggregate) {
    expect_span_identical(a.window_min(), b.window_min(), "window_min");
    expect_span_identical(a.window_max(), b.window_max(), "window_max");
    expect_span_identical(a.window_mean(), b.window_mean(), "window_mean");
    ASSERT_EQ(a.active_senders().size(), b.active_senders().size());
    for (std::size_t t = 0; t < a.active_senders().size(); ++t) {
      ASSERT_EQ(a.active_senders()[t], b.active_senders()[t]) << "step " << t;
    }
  }
}

void expect_matches_reference(const cc::Protocol& prototype,
                              const RunConfig& cfg) {
  const Trace reference = run_config(prototype, cfg, Runner::kReference);
  expect_trace_identical(reference,
                         run_config(prototype, cfg, Runner::kSimulation));
  expect_trace_identical(reference,
                         run_config(prototype, cfg, Runner::kMaterialized));
}

class EveryFamily : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Batch, EveryFamily,
                         ::testing::ValuesIn(family_specs()),
                         [](const auto& suite_info) {
                           std::string name = suite_info.param;
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

TEST_P(EveryFamily, PopulationSizes) {
  const auto prototype = cc::make_protocol(GetParam());
  for (const int n : {1, 7, 64, 1000}) {
    RunConfig cfg;
    cfg.n = n;
    cfg.steps = n >= 1000 ? 60 : 120;
    expect_matches_reference(*prototype, cfg);
  }
}

TEST_P(EveryFamily, ChurnAndInjectedLoss) {
  const auto prototype = cc::make_protocol(GetParam());
  RunConfig churn;
  churn.n = 64;
  churn.churn = true;
  expect_matches_reference(*prototype, churn);

  RunConfig lossy;
  lossy.n = 7;
  lossy.injected_loss = true;
  expect_matches_reference(*prototype, lossy);

  RunConfig both;
  both.n = 33;
  both.churn = true;
  both.injected_loss = true;
  expect_matches_reference(*prototype, both);
}

TEST_P(EveryFamily, EvaluatorScenarioShapes) {
  // The fluid runs core::evaluate_protocol makes, every cohort one count-1
  // sender: the lone robustness / fast-utilization probe on the infinite
  // link under constant loss, the shared link with spread initial windows,
  // and P against AIMD (the friendliness run).
  const auto prototype = cc::make_protocol(GetParam());
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  for (const double rate : {0.0, 0.01, 0.3}) {
    RunConfig probe;
    probe.n = 1;
    probe.steps = 300;
    probe.constant_loss = rate;
    SCOPED_TRACE("probe under loss " + std::to_string(rate));
    expect_matches_reference(*prototype, probe);
  }
  for (const int n : {2, 3}) {
    RunConfig shared;
    shared.n = n;
    shared.spread = true;
    SCOPED_TRACE("shared link, n = " + std::to_string(n));
    expect_matches_reference(*prototype, shared);
  }
  RunConfig mixed;
  mixed.n = 1;
  mixed.partner = aimd.get();
  SCOPED_TRACE("P against aimd(1,0.5)");
  expect_matches_reference(*prototype, mixed);
}

TEST_P(EveryFamily, NearEvaluatorScenarioShapes) {
  // Just outside those shapes, one condition broken at a time: a count-2
  // cohort; an AIMD partner that joins late, or leaves early; count-1
  // senders under a stateful injector; and three churned count-1 senders.
  const auto prototype = cc::make_protocol(GetParam());
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto check = [&](const char* what, const RunConfig& cfg) {
    SCOPED_TRACE(what);
    expect_matches_reference(*prototype, cfg);
  };
  RunConfig pair;
  pair.n = 2;
  check("one count-2 cohort", pair);
  RunConfig joins;
  joins.n = 1;
  joins.partner = aimd.get();
  joins.partner_start = 40;
  check("partner joins late", joins);
  RunConfig leaves = joins;
  leaves.partner_start = 0;
  leaves.partner_stop = 80;
  check("partner leaves early", leaves);
  RunConfig stateful;
  stateful.n = 3;
  stateful.spread = true;
  stateful.injected_loss = true;
  check("count-1 senders under a stateful injector", stateful);
  RunConfig churned;
  churned.n = 3;
  churned.churn = true;
  check("churned count-1 senders", churned);
}

TEST_P(EveryFamily, AggregateMatchesScalarAggregate) {
  // Aggregate detail with a stateless injector: the uniform layout, plus
  // the forced materialized layout, each against the reference.
  const auto prototype = cc::make_protocol(GetParam());
  RunConfig cfg;
  cfg.n = 64;
  cfg.churn = true;
  cfg.detail = TraceDetail::kAggregate;
  cfg.tracked = 5;
  expect_matches_reference(*prototype, cfg);
}

TEST(FluidBatch, ShardedKernelCohortsMatchReference) {
  // Population scale for materialized kernel cohorts: three churn cohorts
  // of ~33k members each, and per-sender injected loss makes members (and
  // kernel state) diverge.
  const cc::SlowStartWrapper slow_start(std::make_unique<cc::Aimd>(1.0, 0.5),
                                        48.0);
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto highspeed = cc::make_protocol("highspeed");
  const std::vector<const cc::Protocol*> prototypes{
      aimd.get(), highspeed.get(), &slow_start};
  for (const cc::Protocol* prototype : prototypes) {
    RunConfig cfg;
    cfg.n = 3 * 2 * 16384 + 7;
    cfg.steps = 40;
    cfg.churn = true;
    cfg.injected_loss = true;
    cfg.detail = TraceDetail::kAggregate;
    cfg.mbps = 24.0 * 2000.0;  // ~1 MSS of capacity per sender: slow
                               // start lasts past the first steps
    expect_matches_reference(*prototype, cfg);
  }
}

TEST(FluidBatch, UniformFoldMatchesReferenceAtScale) {
  // Population scale: each uniform representative folds ~10^5 identical
  // windows into the aggregate per step, so the closed-form repeated add
  // jumps across whole binades. Three families (a kernel family, cubic,
  // bin) with distinct initial windows, one cohort joining late and one
  // leaving early; both cohort widths against the reference.
  SimOptions options;
  options.steps = 40;
  options.trace_detail = TraceDetail::kAggregate;
  options.tracked_senders = 6;
  const LinkParams link = test_link(24.0 * 6000.0);
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
  const auto bin = cc::make_protocol("bin(1,1,1,0.5)");
  const auto groups = [&] {
    std::vector<ReferenceGroup> g;
    g.push_back({SenderSpec{aimd->clone(), 2.0, 0, -1}, 90001});
    g.push_back({SenderSpec{cubic->clone(), 5.0, 12, -1}, 60000});
    g.push_back({SenderSpec{bin->clone(), 1.5, 0, 25}, 49999});
    return g;
  };
  const Trace reference = fluid::run_reference(link, options, groups());
  for (const bool materialized : {false, true}) {
    FluidSimulation sim(link, options);
    for (ReferenceGroup& group : groups()) {
      sim.add_senders(std::move(group.spec), group.count);
    }
    if (materialized) {
      sim.set_step_monitor([](long, std::span<const double>, double, double) {
        return true;
      });
    }
    SCOPED_TRACE(materialized ? "materialized" : "uniform");
    expect_trace_identical(reference, sim.run());
  }
}

TEST(FluidBatch, SlowStartWrapperBatches) {
  // SlowStart+AIMD is not reachable through the registry; it is the one
  // stateful kernel (one double per sender), so cover it directly.
  const cc::SlowStartWrapper prototype(std::make_unique<cc::Aimd>(1.0, 0.5),
                                       48.0);
  ASSERT_NE(prototype.batch_kernel(), nullptr);
  for (const int n : {1, 7, 64}) {
    RunConfig cfg;
    cfg.n = n;
    expect_matches_reference(prototype, cfg);
  }
  RunConfig churned;
  churned.n = 21;
  churned.churn = true;
  churned.injected_loss = true;
  expect_matches_reference(prototype, churned);
}

TEST(FluidBatch, SlowStartOverStatefulInnerStaysScalar) {
  const cc::SlowStartWrapper wrapped(cc::make_protocol("cubic(0.4,0.8)"), 64.0);
  EXPECT_EQ(wrapped.batch_kernel(), nullptr);
  // ... and still runs correctly through per-member fallback dispatch.
  RunConfig cfg;
  cfg.n = 7;
  expect_matches_reference(wrapped, cfg);
}

TEST(FluidBatch, MixedCohortsKernelAndFallback) {
  // Heterogeneous population: kernel cohorts (AIMD) interleaved with
  // fallback cohorts (CUBIC) in one simulation.
  const auto aimd = cc::make_protocol("aimd(1,0.5)");
  const auto cubic = cc::make_protocol("cubic(0.4,0.8)");
  SimOptions options;
  options.steps = 100;
  const auto groups = [&] {
    std::vector<ReferenceGroup> g;
    g.push_back({SenderSpec{aimd->clone(), 2.0}, 20});
    g.push_back({SenderSpec{cubic->clone(), 2.0}, 20});
    g.push_back({SenderSpec{aimd->clone(), 1.0, 25, 75}, 10});
    return g;
  };
  FluidSimulation sim(test_link(), options);
  for (ReferenceGroup& group : groups()) {
    sim.add_senders(std::move(group.spec), group.count);
  }
  expect_trace_identical(fluid::run_reference(test_link(), options, groups()),
                         sim.run());
}

TEST(FluidBatch, BulkAddMatchesRepeatedAdd) {
  // add_senders(prototype, n) is the O(1)-allocation cohort constructor; it
  // must behave exactly like n individual add_sender calls.
  const auto prototype = cc::make_protocol("aimd(1,0.5)");
  SimOptions options;
  options.steps = 80;
  FluidSimulation bulk(test_link(), options);
  bulk.add_senders(*prototype, 16, 2.0);
  FluidSimulation repeated(test_link(), options);
  for (int i = 0; i < 16; ++i) repeated.add_sender(*prototype, 2.0);
  expect_trace_identical(bulk.run(), repeated.run());
}

TEST(FluidBatch, AggregateStatsMatchFullTrace) {
  const auto prototype = cc::make_protocol("aimd(1,0.5)");
  RunConfig full_cfg;
  full_cfg.n = 30;
  full_cfg.churn = true;
  const Trace full = run_config(*prototype, full_cfg, Runner::kReference);

  RunConfig agg_cfg = full_cfg;
  agg_cfg.detail = TraceDetail::kAggregate;
  agg_cfg.tracked = 3;
  const Trace agg = run_config(*prototype, agg_cfg, Runner::kSimulation);

  ASSERT_EQ(full.num_steps(), agg.num_steps());
  expect_span_identical(full.total_window(), agg.total_window(),
                        "total_window");
  for (std::size_t t = 0; t < full.num_steps(); ++t) {
    double wmin = 0.0;
    double wmax = 0.0;
    long active = 0;
    double total = 0.0;
    for (int i = 0; i < full.num_senders(); ++i) {
      const double w = full.windows(i)[t];
      total += w;
      if (w > 0.0) {
        if (active == 0 || w < wmin) wmin = w;
        if (active == 0 || w > wmax) wmax = w;
        ++active;
      }
    }
    ASSERT_EQ(agg.active_senders()[t], active) << "step " << t;
    ASSERT_EQ(agg.window_min()[t], wmin) << "step " << t;
    ASSERT_EQ(agg.window_max()[t], wmax) << "step " << t;
    ASSERT_EQ(agg.window_mean()[t],
              active > 0 ? total / static_cast<double>(active) : 0.0)
        << "step " << t;
  }
  // Tracked ids resolve by global sender id; untracked ids are rejected.
  ASSERT_EQ(agg.tracked_senders().size(), 3u);
  for (const int id : agg.tracked_senders()) {
    EXPECT_TRUE(agg.tracks(id));
    expect_span_identical(full.windows(id), agg.windows(id), "tracked window");
  }
  EXPECT_FALSE(agg.tracks(1));
}

TEST(FluidBatch, DefaultTrackedSendersSelection) {
  const auto ids = fluid::default_tracked_senders(10, 4);
  ASSERT_EQ(ids, (std::vector<int>{0, 2, 5, 7}));
  const auto all = fluid::default_tracked_senders(3, 8);
  ASSERT_EQ(all, (std::vector<int>{0, 1, 2}));
}

TEST(FluidBatch, AggregateTraceMemoryIsPopulationIndependent) {
  // The aggregate trace keeps stats plus k tracked series only: its
  // retained series count must not scale with n.
  const auto prototype = cc::make_protocol("aimd(1,0.5)");
  SimOptions options;
  options.steps = 50;
  options.trace_detail = TraceDetail::kAggregate;
  options.tracked_senders = 4;
  FluidSimulation sim(test_link(), options);
  sim.add_senders(*prototype, 5000, 1.0);
  const Trace trace = sim.run();
  EXPECT_EQ(trace.num_senders(), 5000);
  EXPECT_EQ(trace.tracked_senders().size(), 4u);
  EXPECT_EQ(trace.num_steps(), 50u);
  EXPECT_EQ(trace.windows(0).size(), 50u);
}

}  // namespace
}  // namespace axiomcc
