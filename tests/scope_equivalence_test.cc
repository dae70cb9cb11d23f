// Streaming-vs-post-hoc equivalence: a full-horizon scope window
// (window_steps == 0) attached to a live run must reproduce the src/core
// tail estimators computed on the finished trace. Both sides call the same
// formulas (scope/scope.h), so what this checks is the accumulation: the
// scope's streaming min/max/sum against core's one pass over the tail. On
// the fluid backend the scope is fed exactly the values the trace records,
// in the same serial ascending order, so the match is bit-exact (EXPECT_EQ).
// On the packet backend the trace content is identical too, but the scope's
// normalization constants (capacity, base RTT) are resolved from the link
// parameters rather than read back from the trace, so the capacity-scaled
// axes compare within a tight relative tolerance instead.
//
// Thirteen protocol families cover the registry's behavioural range:
// additive/multiplicative increase, cubic growth, delay-based, loss-model
// and rate-based schemes.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "engine/scenario.h"
#include "fluid/link.h"
#include "scope/scope.h"

namespace axiomcc {
namespace {

constexpr const char* kFamilies[] = {
    "aimd(1,0.5)", "mimd(1.01,0.875)", "cubic(0.4,0.8)", "reno",
    "scalable",    "cubic-linux",      "pcc",            "illinois",
    "veno",        "highspeed",        "westwood",       "bbr",
    "cautious",
};

struct EquivRun {
  scope::ScopeSeries series;
  fluid::Trace trace;
  long warmup = 0;

  [[nodiscard]] double estimate(scope::Axis axis) const {
    return series.last(scope::SubjectKind::kRun, -1, axis,
                       std::numeric_limits<double>::quiet_NaN());
  }
};

/// Two senders sharing the default 30 Mbps / 42 ms / 100 MSS link — the
/// shared-link layout core::evaluate_protocol scores (sender i starts at
/// 1 + C·i/(2n)) — with a full-horizon scope riding the run. When
/// `q_protocol` is non-null the second slot runs it instead (the Metric VII
/// mixed run) and the scope splits P = {0}, Q = {1}.
EquivRun run_equiv(const std::string& protocol, engine::BackendKind backend,
                   long steps, const char* q_protocol = nullptr) {
  const auto p = cc::make_protocol(protocol);
  const auto q = q_protocol != nullptr ? cc::make_protocol(q_protocol)
                                       : nullptr;

  engine::ScenarioSpec spec;
  spec.steps = steps;
  spec.tail_fraction = 0.5;
  if (backend == engine::BackendKind::kPacket) {
    // Keep packet event counts bounded for the aggressive families (the
    // same reason every packet harness in the repo caps cwnd).
    spec.max_window_mss = 1000.0;
  }
  const double capacity = fluid::FluidLink(spec.link).capacity_mss();
  spec.add_sender(*p, 1.0);
  spec.add_sender(q != nullptr ? *q : *p, 1.0 + capacity / 4.0);

  spec.scope.enabled = true;  // window_steps 0: one full-horizon window.
  if (q != nullptr) spec.scope.p_classes = 1;
  const auto sc = engine::make_scope(spec);
  spec.scope_sink = sc.get();

  engine::RunTrace rt = engine::backend_for(backend).run(spec);

  EquivRun out{sc->series(), std::move(rt.trace),
               sc->config().warmup_steps};
  return out;
}

TEST(ScopeEquivalence, FluidFullHorizonMatchesPostHocExactly) {
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const EquivRun r = run_equiv(family, engine::BackendKind::kFluid, 1200);
    ASSERT_EQ(r.trace.num_steps(), 1200u);
    EXPECT_EQ(r.warmup, 600);

    core::EstimatorConfig cfg;
    cfg.tail_fraction = 0.5;
    EXPECT_EQ(r.estimate(scope::Axis::kEfficiency),
              core::measure_efficiency(r.trace, cfg));
    EXPECT_EQ(r.estimate(scope::Axis::kLossAvoidance),
              core::measure_loss_avoidance(r.trace, cfg));
    EXPECT_EQ(r.estimate(scope::Axis::kFairness),
              core::measure_fairness(r.trace, cfg));
    EXPECT_EQ(r.estimate(scope::Axis::kConvergence),
              core::measure_convergence(r.trace, cfg));
    EXPECT_EQ(r.estimate(scope::Axis::kLatencyAvoidance),
              core::measure_latency_avoidance(r.trace, cfg));
    // The fluid run never nears the 1e9-MSS cap, so the scope's saturation
    // truncation is inert and the coefficient matches core's exactly.
    EXPECT_EQ(
        r.estimate(scope::Axis::kFastUtilization),
        core::fast_utilization_coefficient(r.trace.total_window(), r.warmup));
    // No P/Q split configured: the friendliness channel reports 1.
    EXPECT_EQ(r.estimate(scope::Axis::kTcpFriendliness), 1.0);
    const double robustness = r.estimate(scope::Axis::kRobustness);
    EXPECT_GE(robustness, 0.0);
    EXPECT_LE(robustness, 1.0);
  }
}

TEST(ScopeEquivalence, PacketFullHorizonMatchesPostHoc) {
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const EquivRun r = run_equiv(family, engine::BackendKind::kPacket, 360);
    ASSERT_EQ(r.trace.num_steps(), 360u);
    EXPECT_EQ(r.warmup, 180);

    core::EstimatorConfig cfg;
    cfg.tail_fraction = 0.5;
    // The scope is fed the exact per-step values the packet trace records,
    // so the capacity-independent axes match bit-for-bit.
    EXPECT_DOUBLE_EQ(r.estimate(scope::Axis::kLossAvoidance),
                     core::measure_loss_avoidance(r.trace, cfg));
    EXPECT_DOUBLE_EQ(r.estimate(scope::Axis::kFairness),
                     core::measure_fairness(r.trace, cfg));
    EXPECT_DOUBLE_EQ(r.estimate(scope::Axis::kConvergence),
                     core::measure_convergence(r.trace, cfg));
    // Efficiency and latency normalize by the scope's link-derived capacity
    // and base RTT, which equal the trace's up to rounding in the
    // MSS<->Mbps unit round-trip.
    EXPECT_NEAR(r.estimate(scope::Axis::kEfficiency),
                core::measure_efficiency(r.trace, cfg), 1e-9);
    EXPECT_NEAR(r.estimate(scope::Axis::kLatencyAvoidance),
                core::measure_latency_avoidance(r.trace, cfg), 1e-9);
    // Fast-utilization may hit the packet-side cwnd cap's saturation
    // truncation, which the post-hoc coefficient alone does not model;
    // sanity only.
    const double fast = r.estimate(scope::Axis::kFastUtilization);
    EXPECT_TRUE(std::isfinite(fast));
    EXPECT_GE(fast, 0.0);
    const double robustness = r.estimate(scope::Axis::kRobustness);
    EXPECT_GE(robustness, 0.0);
    EXPECT_LE(robustness, 1.0);
  }
}

TEST(ScopeEquivalence, FriendlinessSplitMatchesPostHocMixedRun) {
  constexpr int kP[] = {0};
  constexpr int kQ[] = {1};
  for (const char* family : kFamilies) {
    SCOPED_TRACE(family);
    const EquivRun r =
        run_equiv(family, engine::BackendKind::kFluid, 1200, "reno");
    core::EstimatorConfig cfg;
    cfg.tail_fraction = 0.5;
    EXPECT_EQ(r.estimate(scope::Axis::kTcpFriendliness),
              core::measure_friendliness(r.trace, kP, kQ, cfg));
  }
}

TEST(ScopeEquivalence, CappedLossFreeRunReportsFullRobustness) {
  // Both senders capped far below capacity: no congestion loss ever, so the
  // escape-fraction proxy must report exactly 1.
  const auto p = cc::make_protocol("aimd(1,0.5)");
  engine::ScenarioSpec spec;
  spec.steps = 400;
  spec.tail_fraction = 0.5;
  spec.max_window_mss = 10.0;
  spec.add_sender(*p, 1.0);
  spec.add_sender(*p, 2.0);
  spec.scope.enabled = true;
  const auto sc = engine::make_scope(spec);
  spec.scope_sink = sc.get();
  const engine::RunTrace rt =
      engine::backend_for(engine::BackendKind::kFluid).run(spec);

  core::EstimatorConfig cfg;
  cfg.tail_fraction = 0.5;
  EXPECT_DOUBLE_EQ(core::measure_loss_avoidance(rt.trace, cfg), 0.0);
  EXPECT_DOUBLE_EQ(sc->run_estimate(scope::Axis::kRobustness), 1.0);
}

}  // namespace
}  // namespace axiomcc
