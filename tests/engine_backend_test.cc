// Unit tests for the engine layer: ScenarioSpec parsing and validation, the
// fluid backend's equivalence with a hand-built fluid::FluidSimulation, the
// packet backend's scenario mappings (loss injection, schedules, monitor
// stop), and the packet single-link path's identity with its one-link
// topology form.
#include "engine/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cc/aimd.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/sim.h"

namespace axiomcc::engine {
namespace {

ScenarioSpec small_spec(long steps = 200) {
  ScenarioSpec spec;
  spec.link = fluid::make_link_mbps(10.0, 40.0, 50.0);
  spec.steps = steps;
  return spec;
}

TEST(ParseBackend, AcceptsKnownNames) {
  EXPECT_EQ(parse_backend("fluid"), BackendKind::kFluid);
  EXPECT_EQ(parse_backend("packet"), BackendKind::kPacket);
  EXPECT_STREQ(backend_name(BackendKind::kFluid), "fluid");
  EXPECT_STREQ(backend_name(BackendKind::kPacket), "packet");
}

TEST(ParseBackend, RejectsUnknownNames) {
  EXPECT_THROW((void)parse_backend("ns3"), std::invalid_argument);
  EXPECT_THROW((void)parse_backend(""), std::invalid_argument);
  EXPECT_THROW((void)parse_backend("Fluid"), std::invalid_argument);
}

TEST(BackendFor, ReturnsMatchingKind) {
  EXPECT_EQ(backend_for(BackendKind::kFluid).kind(), BackendKind::kFluid);
  EXPECT_EQ(backend_for(BackendKind::kPacket).kind(), BackendKind::kPacket);
}

TEST(FluidBackend, MatchesDirectSimulationExactly) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.add_sender(aimd, 1.0);
  spec.add_sender(aimd, 8.0);
  const RunTrace rt = backend_for(BackendKind::kFluid).run(spec);

  fluid::SimOptions opt;
  opt.steps = spec.steps;
  fluid::FluidSimulation sim(spec.link, opt);
  sim.add_sender(aimd, 1.0);
  sim.add_sender(aimd, 8.0);
  const fluid::Trace direct = sim.run();

  ASSERT_EQ(rt.trace.num_steps(), direct.num_steps());
  ASSERT_EQ(rt.trace.num_senders(), direct.num_senders());
  for (int i = 0; i < direct.num_senders(); ++i) {
    const auto a = rt.trace.windows(i);
    const auto b = direct.windows(i);
    for (std::size_t t = 0; t < b.size(); ++t) {
      ASSERT_EQ(a[t], b[t]) << "sender " << i << " step " << t;
    }
  }
  EXPECT_EQ(rt.backend, BackendKind::kFluid);
  EXPECT_TRUE(rt.flows.empty());
  EXPECT_LT(rt.bottleneck_utilization, 0.0);
}

TEST(FluidBackend, HonorsLossFactoryAndSeed) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.add_sender(aimd, 1.0);
  spec.loss = {.kind = fluid::LossSpec::Kind::kBernoulli,
               .rate = 0.05,
               .prob = 0.2};
  spec.seed = 7;
  const fluid::Trace a = backend_for(BackendKind::kFluid).run(spec).trace;
  const fluid::Trace b = backend_for(BackendKind::kFluid).run(spec).trace;
  // Same seed → identical stochastic run.
  double observed = 0.0;
  for (std::size_t t = 0; t < a.num_steps(); ++t) {
    ASSERT_EQ(a.windows(0)[t], b.windows(0)[t]);
    observed += a.observed_loss(0)[t];
  }
  EXPECT_GT(observed, 0.0);
}

TEST(PacketBackend, ProducesOneTraceStepPerRtt) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(100);
  spec.add_sender(aimd, 2.0);
  spec.add_sender(aimd, 4.0);
  const RunTrace rt = backend_for(BackendKind::kPacket).run(spec);

  EXPECT_EQ(rt.backend, BackendKind::kPacket);
  // One sample per RTT over steps·RTT seconds (the final boundary sample
  // may or may not land depending on event ordering).
  const auto steps = static_cast<long>(rt.trace.num_steps());
  EXPECT_GE(steps, spec.steps - 1);
  EXPECT_LE(steps, spec.steps + 1);
  EXPECT_EQ(rt.trace.num_senders(), 2);
  ASSERT_EQ(rt.flows.size(), 2u);
  EXPECT_GT(rt.bottleneck_utilization, 0.1);
  // Windows grow past their initial values at some point.
  double peak = 0.0;
  for (const double w : rt.trace.windows(0)) peak = std::max(peak, w);
  EXPECT_GT(peak, 2.0);
}

TEST(PacketBackend, StepMonitorStopsTheRunEarly) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(400);
  spec.add_sender(aimd, 2.0);
  spec.step_monitor = [](long step, std::span<const double>, double, double) {
    return step < 50;
  };
  const RunTrace rt = backend_for(BackendKind::kPacket).run(spec);
  EXPECT_GE(rt.trace.num_steps(), 50u);
  EXPECT_LT(rt.trace.num_steps(), 60u);
}

TEST(FluidBackend, StepMonitorStopsTheRunEarly) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(400);
  spec.add_sender(aimd, 2.0);
  spec.step_monitor = [](long step, std::span<const double>, double, double) {
    return step < 50;
  };
  const RunTrace rt = backend_for(BackendKind::kFluid).run(spec);
  EXPECT_GE(rt.trace.num_steps(), 50u);
  EXPECT_LT(rt.trace.num_steps(), 60u);
}

TEST(PacketBackend, InjectedLossDropsPackets) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec clean = small_spec(150);
  clean.add_sender(aimd, 2.0);
  ScenarioSpec lossy = clean;
  lossy.loss = {.kind = fluid::LossSpec::Kind::kConstant, .rate = 0.05};

  const RunTrace base = backend_for(BackendKind::kPacket).run(clean);
  const RunTrace hit = backend_for(BackendKind::kPacket).run(lossy);
  ASSERT_EQ(hit.flows.size(), 1u);
  // A 5% forward drop rate must register as measured loss and depress the
  // window trajectory relative to the clean run.
  EXPECT_GT(hit.flows[0].loss_rate, 0.01);
  double base_mean = 0.0;
  double hit_mean = 0.0;
  const auto bw = base.trace.windows(0);
  const auto hw = hit.trace.windows(0);
  const std::size_t n = std::min(bw.size(), hw.size());
  for (std::size_t t = 0; t < n; ++t) {
    base_mean += bw[t];
    hit_mean += hw[t];
  }
  EXPECT_LT(hit_mean, base_mean);
}

TEST(PacketBackend, BandwidthScheduleThrottlesThroughput) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(150);
  spec.add_sender(aimd, 2.0);
  const RunTrace base = backend_for(BackendKind::kPacket).run(spec);

  ScenarioSpec throttled = spec;
  throttled.bandwidth_scale = fluid::Schedule{{{0, 0.25}}};
  const RunTrace slow = backend_for(BackendKind::kPacket).run(throttled);

  // Utilization is measured against the NOMINAL capacity, so quartering the
  // real rate must cut the delivered fraction roughly proportionally.
  EXPECT_LT(slow.bottleneck_utilization,
            0.5 * base.bottleneck_utilization);
}

TEST(PacketBackend, RttScheduleSlowsWindowGrowth) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(150);
  spec.add_sender(aimd, 2.0);
  const RunTrace base = backend_for(BackendKind::kPacket).run(spec);

  ScenarioSpec stretched = spec;
  stretched.rtt_scale = fluid::Schedule{{{0, 3.0}}};
  const RunTrace slow = backend_for(BackendKind::kPacket).run(stretched);

  // Tripling the RTT means ~3x fewer window updates in the same wall-clock
  // horizon: the mean window must drop noticeably.
  double base_mean = 0.0;
  for (const double w : base.trace.windows(0)) base_mean += w;
  base_mean /= static_cast<double>(base.trace.num_steps());
  double slow_mean = 0.0;
  for (const double w : slow.trace.windows(0)) slow_mean += w;
  slow_mean /= static_cast<double>(slow.trace.num_steps());
  EXPECT_LT(slow_mean, 0.8 * base_mean);
}

TEST(PacketBackend, StopStepRemovesFlowFromTail) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(120);
  spec.add_sender(aimd, 2.0);
  spec.add_sender(aimd, 2.0, /*start_step=*/0.0, /*stop_step=*/40.0);
  const RunTrace rt = backend_for(BackendKind::kPacket).run(spec);

  const auto churned = rt.trace.windows(1);
  ASSERT_GT(churned.size(), 100u);
  // Active early, sampled as 0 after its stop step.
  double early = 0.0;
  for (std::size_t t = 5; t < 35; ++t) early += churned[t];
  EXPECT_GT(early, 0.0);
  for (std::size_t t = 45; t < churned.size(); ++t) {
    ASSERT_EQ(churned[t], 0.0) << "step " << t;
  }
}

TEST(ScenarioValidation, RejectsRouteWithoutTopology) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.add_routed_sender(aimd, {0});
  try {
    validate_scenario(spec);
    FAIL() << "route without topology should throw";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("no topology"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioValidation, RequiresExactlyOneProtocolSourcePerSlot) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.add_sender(aimd, 1.0);
  spec.senders[0].protocol = "aimd(1,0.5)";  // both
  for (const auto kind : {BackendKind::kFluid, BackendKind::kPacket}) {
    EXPECT_THROW(validate_scenario(spec), ScenarioError);
    EXPECT_THROW((void)backend_for(kind).run(spec), ScenarioError);
  }
  spec.senders[0].prototype = nullptr;
  spec.senders[0].protocol.clear();  // neither
  EXPECT_THROW(validate_scenario(spec), ScenarioError);
  spec.senders[0].protocol = "aimd(1,2)";  // does not build
  EXPECT_THROW(validate_scenario(spec), ScenarioError);
  spec.senders[0].protocol = "no-such-protocol";
  EXPECT_THROW(validate_scenario(spec), ScenarioError);
}

TEST(ScenarioValidation, ProtocolSpecSlotsRunLikePrototypeSlots) {
  // A slot that names its protocol by spec runs bit-identically to one
  // pointing at a prototype, workload expansion included, on both backends.
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec by_prototype = small_spec(120);
  by_prototype.add_senders(aimd, 3, 1.0);
  by_prototype.add_sender(aimd, 5.0, 10.0, 90.0);
  by_prototype.workload.kind = WorkloadKind::kIncast;
  by_prototype.workload.flows = 2;
  ScenarioSpec by_spec = by_prototype;
  for (SenderSlot& slot : by_spec.senders) {
    slot.prototype = nullptr;
    slot.protocol = "aimd(1,0.5)";
  }
  EXPECT_EQ(make_run_slots(by_spec).protocols.size(), 2u);
  EXPECT_TRUE(make_run_slots(by_prototype).protocols.empty());
  for (const auto kind : {BackendKind::kFluid, BackendKind::kPacket}) {
    const fluid::Trace a = backend_for(kind).run(by_prototype).trace;
    const fluid::Trace b = backend_for(kind).run(by_spec).trace;
    ASSERT_EQ(a.num_senders(), b.num_senders());
    ASSERT_EQ(a.num_steps(), b.num_steps());
    for (int i = 0; i < a.num_senders(); ++i) {
      const auto wa = a.windows(i);
      const auto wb = b.windows(i);
      ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin()))
          << backend_name(kind) << " sender " << i;
    }
  }
}

TEST(ScenarioValidation, RejectsEmptyRouteInTopologyMode) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.topology.links = {spec.link, spec.link};
  spec.add_sender(aimd, 1.0);  // no route
  EXPECT_THROW(validate_scenario(spec), ScenarioError);
}

TEST(ScenarioValidation, RejectsUnknownAndRepeatedLinkIds) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.topology.links = {spec.link, spec.link};
  spec.add_routed_sender(aimd, {0, 2});
  try {
    validate_scenario(spec);
    FAIL() << "unknown link id should throw";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown link id 2"),
              std::string::npos)
        << e.what();
    // ScenarioError is an invalid_argument, so generic catch sites work.
    EXPECT_NE(dynamic_cast<const std::invalid_argument*>(&e), nullptr);
  }
  spec.senders.clear();
  spec.add_routed_sender(aimd, {1, 1});
  EXPECT_THROW(validate_scenario(spec), ScenarioError);
}

TEST(ScenarioValidation, BackendsRejectInvalidRoutesBeforeRunning) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec();
  spec.topology.links = {spec.link};
  spec.add_routed_sender(aimd, {3});
  EXPECT_THROW((void)backend_for(BackendKind::kFluid).run(spec),
               ScenarioError);
  EXPECT_THROW((void)backend_for(BackendKind::kPacket).run(spec),
               ScenarioError);
}

TEST(ScenarioValidation, RejectsMalformedLinksOnBothBackends) {
  // Every malformed link ends in a typed ScenarioError before any simulator
  // state exists — on the single link and on a topology link alike. Before
  // the check, a NaN RTT hung the packet horizon loop, a zero delay ran on
  // packet with capacity 0, a negative buffer was clamped to 1 packet on
  // packet but tripped a contract on fluid, and 0 Mbps was a
  // ContractViolation on both.
  const cc::Aimd aimd(1.0, 0.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    fluid::LinkParams link;
  };
  const std::vector<Case> cases = {
      {"nan rtt", fluid::make_link_mbps(10.0, nan, 50.0)},
      {"infinite rtt", fluid::make_link_mbps(10.0, inf, 50.0)},
      {"zero delay", fluid::make_link_mbps(10.0, 0.0, 50.0)},
      {"negative delay", fluid::make_link_mbps(10.0, -40.0, 50.0)},
      {"zero bandwidth", fluid::make_link_mbps(0.0, 40.0, 50.0)},
      {"negative bandwidth", fluid::make_link_mbps(-10.0, 40.0, 50.0)},
      {"nan bandwidth", fluid::make_link_mbps(nan, 40.0, 50.0)},
      {"infinite bandwidth", fluid::make_link_mbps(inf, 40.0, 50.0)},
      {"negative buffer", fluid::make_link_mbps(10.0, 40.0, -1.0)},
      {"nan buffer", fluid::make_link_mbps(10.0, 40.0, nan)},
      {"infinite buffer", fluid::make_link_mbps(10.0, 40.0, inf)},
  };
  for (const Case& c : cases) {
    ScenarioSpec single = small_spec(50);
    single.link = c.link;
    single.add_sender(aimd, 1.0);
    ScenarioSpec routed = small_spec(50);
    routed.topology.links = {routed.link, c.link};
    routed.add_routed_sender(aimd, {0, 1});
    for (const ScenarioSpec* spec : {&single, &routed}) {
      for (const BackendKind kind :
           {BackendKind::kFluid, BackendKind::kPacket}) {
        EXPECT_THROW((void)backend_for(kind).run(*spec), ScenarioError)
            << c.name << (spec == &single ? " single-link " : " topology ")
            << backend_name(kind);
      }
    }
  }
  // A zero buffer is a valid (pure-delay) link.
  ScenarioSpec zero_buffer = small_spec(50);
  zero_buffer.link = fluid::make_link_mbps(10.0, 40.0, 0.0);
  zero_buffer.add_sender(aimd, 1.0);
  EXPECT_NO_THROW(validate_scenario(zero_buffer));
}

TEST(ScenarioValidation, RejectsMalformedSchedulesAndLossOnBothBackends) {
  // Malformed schedules and loss processes end in a typed ScenarioError
  // before any step runs (the monitor never fires), on both backends and
  // in both modes, rather than a ContractViolation inside a simulator.
  const cc::Aimd aimd(1.0, 0.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Kind = fluid::LossSpec::Kind;
  struct Case {
    const char* name;
    fluid::Schedule bandwidth;
    fluid::Schedule rtt;
    fluid::LossSpec loss;
  };
  const std::vector<Case> cases = {
      {"zero bandwidth scale", {{{10, 0.0}}}, {}, {}},
      {"negative rtt scale", {}, {{{10, -2.0}}}, {}},
      {"nan bandwidth scale", {{{0, nan}}}, {}, {}},
      {"infinite rtt scale", {}, {{{5, inf}}}, {}},
      {"negative breakpoint", {{{-1, 0.5}}}, {}, {}},
      {"duplicate breakpoint", {{{10, 0.5}, {10, 2.0}}}, {}, {}},
      {"decreasing breakpoints", {}, {{{20, 2.0}, {10, 1.0}}}, {}},
      {"constant rate 1", {}, {}, {.kind = Kind::kConstant, .rate = 1.0}},
      {"negative constant rate",
       {},
       {},
       {.kind = Kind::kConstant, .rate = -0.1}},
      {"bernoulli prob > 1",
       {},
       {},
       {.kind = Kind::kBernoulli, .rate = 0.1, .prob = 1.5}},
      {"nan bernoulli rate",
       {},
       {},
       {.kind = Kind::kBernoulli, .rate = nan, .prob = 0.5}},
      {"gilbert bad rate 1",
       {},
       {},
       {.kind = Kind::kGilbertElliott, .p_gb = 0.1, .p_bg = 0.3,
        .bad_rate = 1.0}},
      {"empty storm window",
       {},
       {},
       {.kind = Kind::kStorm, .p_gb = 0.2, .p_bg = 0.3, .bad_rate = 0.3,
        .start = 10, .end = 10}},
      {"negative storm start",
       {},
       {},
       {.kind = Kind::kStorm, .p_gb = 0.2, .p_bg = 0.3, .bad_rate = 0.3,
        .start = -5, .end = 50}},
  };
  for (const Case& c : cases) {
    ScenarioSpec single = small_spec(50);
    single.add_sender(aimd, 1.0);
    ScenarioSpec routed = small_spec(50);
    routed.topology.links = {routed.link, routed.link};
    routed.add_routed_sender(aimd, {0, 1});
    for (ScenarioSpec* spec : {&single, &routed}) {
      spec->bandwidth_scale = c.bandwidth;
      spec->rtt_scale = c.rtt;
      spec->loss = c.loss;
      long steps_seen = 0;
      spec->step_monitor = [&steps_seen](long, std::span<const double>,
                                         double, double) {
        ++steps_seen;
        return true;
      };
      for (const BackendKind kind :
           {BackendKind::kFluid, BackendKind::kPacket}) {
        EXPECT_THROW((void)backend_for(kind).run(*spec), ScenarioError)
            << c.name << (spec == &single ? " single-link " : " topology ")
            << backend_name(kind);
      }
      EXPECT_EQ(steps_seen, 0) << c.name;
    }
  }
}

TEST(ScenarioValidation, RejectsSubStepSenderWindowsOnBothBackends) {
  // A slot whose activity window rounds to less than one step used to fault
  // inside the run: [20, 20) and [30, 20) on both backends, [20.2, 20.4) on
  // fluid alone (lround collapses it to [20, 20)). Each now ends in a
  // ScenarioError before any step, as do a non-finite stop, which lround
  // cannot represent, and a negative start (add_sender refuses one by
  // contract, so that slot is built by hand); [20.4, 20.6) rounds to
  // [20, 21) and runs.
  const cc::Aimd aimd(1.0, 0.5);
  const double inf = std::numeric_limits<double>::infinity();
  struct Window {
    double start;
    double stop;
  };
  for (const Window w : {Window{20.0, 20.0}, Window{30.0, 20.0},
                         Window{20.2, 20.4}, Window{10.0, inf},
                         Window{-5.0, -1.0}}) {
    ScenarioSpec spec = small_spec(60);
    spec.senders.push_back(SenderSlot{&aimd, 10.0, w.start, w.stop, 1, {}, {}});
    long steps_seen = 0;
    spec.step_monitor = [&steps_seen](long, std::span<const double>, double,
                                      double) {
      ++steps_seen;
      return true;
    };
    for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
      EXPECT_THROW((void)backend_for(kind).run(spec), ScenarioError)
          << "[" << w.start << ", " << w.stop << ") " << backend_name(kind);
    }
    EXPECT_EQ(steps_seen, 0);
  }
  ScenarioSpec ok = small_spec(60);
  ok.add_sender(aimd, 10.0, 20.4, 20.6);
  for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
    EXPECT_EQ(backend_for(kind).run(ok).trace.num_steps(), 60u)
        << backend_name(kind);
  }
  // Workload templates are expanded first; the generators own the windows.
  ScenarioSpec templated = small_spec(60);
  templated.workload.kind = WorkloadKind::kIncast;
  templated.workload.flows = 2;
  templated.add_sender(aimd, 10.0, 20.0, 20.0);
  EXPECT_NO_THROW(validate_scenario(templated));
}

TEST(ScenarioValidation, RejectsTailFractionOutsideUnitInterval) {
  const cc::Aimd aimd(1.0, 0.5);
  for (const double tail : {1.0, -0.1, 1.5}) {
    ScenarioSpec spec = small_spec(60);
    spec.tail_fraction = tail;
    spec.add_sender(aimd, 1.0);
    for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
      EXPECT_THROW((void)backend_for(kind).run(spec), ScenarioError)
          << tail << " " << backend_name(kind);
    }
  }
  ScenarioSpec zero = small_spec(60);
  zero.tail_fraction = 0.0;
  zero.add_sender(aimd, 1.0);
  EXPECT_NO_THROW(validate_scenario(zero));
}

TEST(ScenarioValidation, RejectsNonPositiveHorizonsOnBothBackends) {
  const cc::Aimd aimd(1.0, 0.5);
  for (const long steps : {0L, -5L, std::numeric_limits<long>::min()}) {
    ScenarioSpec spec = small_spec(steps);
    spec.add_sender(aimd, 1.0);
    EXPECT_THROW(validate_horizon(steps), ScenarioError) << steps;
    for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
      EXPECT_THROW((void)backend_for(kind).run(spec), ScenarioError)
          << steps << " " << backend_name(kind);
    }
  }
  EXPECT_NO_THROW(validate_horizon(1));
}

TEST(ScenarioValidation, RejectsBadWindowBoundsAndTrackingOnBothBackends) {
  // The fluid model clamps windows to [min, max] and requires 0 < min < max;
  // a spec outside that is a typed error before any step, on either
  // backend, not a contract violation inside the fluid simulation.
  const cc::Aimd aimd(1.0, 0.5);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<double, double>> bad{
      {0.0, 1e9}, {5.0, 5.0}, {-1.0, 10.0}, {inf, inf}, {nan, 10.0},
      {1.0, nan}, {10.0, 2.0}};
  for (const auto& [min_w, max_w] : bad) {
    ScenarioSpec spec = small_spec(60);
    spec.min_window_mss = min_w;
    spec.max_window_mss = max_w;
    spec.add_sender(aimd, 1.0);
    EXPECT_THROW(validate_window_bounds(min_w, max_w), ScenarioError)
        << min_w << " " << max_w;
    for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
      EXPECT_THROW((void)backend_for(kind).run(spec), ScenarioError)
          << min_w << " " << max_w << " " << backend_name(kind);
    }
  }
  EXPECT_NO_THROW(validate_window_bounds(1e-3, 2e-3));

  ScenarioSpec untracked = small_spec(60);
  untracked.trace_detail = fluid::TraceDetail::kAggregate;
  untracked.tracked_senders = 0;
  untracked.add_senders(aimd, 3, 1.0);
  for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
    EXPECT_THROW((void)backend_for(kind).run(untracked), ScenarioError)
        << backend_name(kind);
  }
  // Only an aggregate trace tracks senders.
  untracked.trace_detail = fluid::TraceDetail::kFull;
  EXPECT_NO_THROW(validate_scenario(untracked));
}

TEST(ScenarioValidation, PacketBackendRejectsAHorizonPastItsClock) {
  // 40 ms steps: LONG_MAX of them is ~1e26 ns, far past SimTime's int64.
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(std::numeric_limits<long>::max());
  spec.add_sender(aimd, 1.0);
  EXPECT_NO_THROW(validate_scenario(spec));
  EXPECT_THROW((void)backend_for(BackendKind::kPacket).run(spec),
               ScenarioError);
}

TEST(Topology, ParkingLotRunsOnBothBackends) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(120);
  apply_parking_lot(spec, spec.link, /*bottlenecks=*/3, aimd,
                    /*cross_flows_per_link=*/1);
  ASSERT_EQ(spec.topology.num_links(), 3);
  ASSERT_EQ(spec.senders.size(), 4u);  // long flow + one cross per link

  const RunTrace fluid_rt = backend_for(BackendKind::kFluid).run(spec);
  EXPECT_EQ(fluid_rt.backend, BackendKind::kFluid);
  EXPECT_EQ(fluid_rt.trace.num_senders(), 4);
  EXPECT_GT(fluid_rt.trace.num_steps(), 100u);

  const RunTrace packet_rt = backend_for(BackendKind::kPacket).run(spec);
  EXPECT_EQ(packet_rt.backend, BackendKind::kPacket);
  EXPECT_EQ(packet_rt.trace.num_senders(), 4);
  ASSERT_EQ(packet_rt.flows.size(), 4u);
  EXPECT_GT(packet_rt.bottleneck_utilization, 0.05);

  // The long flow traverses every bottleneck while each cross flow fights
  // on one; on both substrates the long flow gets window.
  double fluid_long = 0.0;
  for (const double w : fluid_rt.trace.windows(0)) fluid_long += w;
  EXPECT_GT(fluid_long, 0.0);
  double packet_long = 0.0;
  for (const double w : packet_rt.trace.windows(0)) packet_long += w;
  EXPECT_GT(packet_long, 0.0);
}

TEST(Topology, BothBackendsRunExactlyTheRequestedSteps) {
  // 60 steps of a 30 ms RTT: as a double, 0.03 s × 60 truncates to
  // 1 799 999 999 ns, one nanosecond short of the packet simulator's last
  // sample; the horizon must still reach it on the dumbbell and routed
  // paths alike. A 0.5 ms link keeps its 0.5 ms step (no step floor).
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec dumbbell;
  dumbbell.link = fluid::make_link_mbps(10.0, 30.0, 50.0);
  dumbbell.steps = 60;
  dumbbell.add_sender(aimd, 2.0);
  ScenarioSpec fast = dumbbell;
  fast.link = fluid::make_link_mbps(10.0, 0.5, 50.0);
  ScenarioSpec routed = dumbbell;
  routed.senders.clear();
  apply_parking_lot(routed, routed.link, /*bottlenecks=*/2, aimd,
                    /*cross_flows_per_link=*/1);
  for (const ScenarioSpec* spec : {&dumbbell, &fast, &routed}) {
    for (const BackendKind kind : {BackendKind::kFluid, BackendKind::kPacket}) {
      const RunTrace rt = backend_for(kind).run(*spec);
      const char* name = spec == &dumbbell ? "dumbbell "
                         : spec == &fast   ? "0.5 ms dumbbell "
                                           : "routed ";
      EXPECT_EQ(rt.trace.num_steps(), 60u)
          << name << (kind == BackendKind::kFluid ? "fluid" : "packet");
      if (spec == &fast) {
        EXPECT_DOUBLE_EQ(rt.trace.min_rtt_seconds(), 0.0005) << name;
      }
    }
  }
}

TEST(Topology, SingleLinkSpecIgnoresTopologyMachineryByteForByte) {
  // The degenerate one-link ScenarioSpec must flow through the refactored
  // backend (validate + workload expansion + topology branch) and still
  // reproduce the direct FluidSimulation run exactly — the guarantee every
  // pre-topology caller relies on. MatchesDirectSimulationExactly covers
  // the same path; this variant pins it with churn + loss in play.
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(150);
  spec.add_sender(aimd, 1.0);
  spec.add_sender(aimd, 4.0, /*start_step=*/30.0, /*stop_step=*/120.0);
  spec.loss = {.kind = fluid::LossSpec::Kind::kBernoulli,
               .rate = 0.03,
               .prob = 0.1};
  spec.seed = 11;
  const RunTrace rt = backend_for(BackendKind::kFluid).run(spec);

  fluid::SimOptions opt;
  opt.steps = spec.steps;
  fluid::FluidSimulation sim(spec.link, opt);
  sim.add_sender(aimd, 1.0);
  {
    fluid::SenderSpec churned;
    churned.protocol = aimd.clone();
    churned.initial_window_mss = 4.0;
    churned.start_step = 30;
    churned.stop_step = 120;
    sim.add_sender(std::move(churned));
  }
  sim.set_loss_injector(
      std::make_unique<fluid::BernoulliLoss>(0.1, 0.03, spec.seed));
  const fluid::Trace direct = sim.run();

  ASSERT_EQ(rt.trace.num_steps(), direct.num_steps());
  for (int i = 0; i < direct.num_senders(); ++i) {
    const auto a = rt.trace.windows(i);
    const auto b = direct.windows(i);
    for (std::size_t t = 0; t < b.size(); ++t) {
      ASSERT_EQ(a[t], b[t]) << "sender " << i << " step " << t;
    }
  }
}

TEST(Topology, PacketSingleLinkEqualsOneLinkTopology) {
  // A single-link spec runs on the packet backend as dumbbell_topology with
  // every slot routed over link 0, so the two spellings must agree to the
  // last bit — traces, per-flow reports and utilization — with churn,
  // Gilbert–Elliott injected loss and both schedules in play.
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec single = small_spec(240);
  single.add_sender(aimd, 1.0);
  single.add_senders(aimd, 2, 4.0, /*start_step=*/30.0, /*stop_step=*/180.0);
  single.loss = {.kind = fluid::LossSpec::Kind::kGilbertElliott,
                 .p_gb = 0.05,
                 .p_bg = 0.3,
                 .good_rate = 0.0,
                 .bad_rate = 0.2};
  single.seed = 5;
  single.bandwidth_scale = fluid::Schedule{{{120, 0.5}}};
  // 1.2 and 0.85 are scales where a Θ·(2s−1) ms retarget lands one
  // nanosecond away from the (s−½)·2Θ s retarget on this 40 ms link.
  single.rtt_scale = fluid::Schedule{{{60, 1.2}, {150, 0.85}}};
  ScenarioSpec routed = single;
  routed.topology = dumbbell_topology(single.link);
  for (SenderSlot& slot : routed.senders) slot.route = {0};

  const RunTrace a = backend_for(BackendKind::kPacket).run(single);
  const RunTrace b = backend_for(BackendKind::kPacket).run(routed);
  const auto same_bits = [](std::span<const double> x,
                            std::span<const double> y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size_bytes()) == 0;
  };
  ASSERT_EQ(a.trace.num_senders(), 3);
  ASSERT_EQ(a.trace.num_senders(), b.trace.num_senders());
  EXPECT_EQ(a.trace.num_steps(), 240u);
  EXPECT_TRUE(same_bits(a.trace.total_window(), b.trace.total_window()));
  EXPECT_TRUE(same_bits(a.trace.rtt_seconds(), b.trace.rtt_seconds()));
  EXPECT_TRUE(
      same_bits(a.trace.congestion_loss(), b.trace.congestion_loss()));
  for (int i = 0; i < a.trace.num_senders(); ++i) {
    EXPECT_TRUE(same_bits(a.trace.windows(i), b.trace.windows(i))) << i;
    EXPECT_TRUE(same_bits(a.trace.observed_loss(i), b.trace.observed_loss(i)))
        << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace.link_capacity_mss()),
            std::bit_cast<std::uint64_t>(b.trace.link_capacity_mss()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.trace.min_rtt_seconds()),
            std::bit_cast<std::uint64_t>(b.trace.min_rtt_seconds()));
  ASSERT_EQ(a.flows.size(), 3u);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const sim::FlowReport& x = a.flows[i];
    const sim::FlowReport& y = b.flows[i];
    EXPECT_EQ(x.protocol_name, y.protocol_name);
    const double xs[] = {x.avg_window_mss, x.throughput_mbps, x.loss_rate,
                         x.avg_rtt_ms};
    const double ys[] = {y.avg_window_mss, y.throughput_mbps, y.loss_rate,
                         y.avg_rtt_ms};
    EXPECT_TRUE(same_bits(xs, ys)) << "flow " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.bottleneck_utilization),
            std::bit_cast<std::uint64_t>(b.bottleneck_utilization));
  // The injected loss and the churn really were in play.
  EXPECT_GT(a.flows[0].loss_rate, 0.0);
  EXPECT_EQ(a.trace.windows(1).back(), 0.0);
}

TEST(Workload, IncastExpansionIsSeededAndDeterministic) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(100);
  spec.add_sender(aimd, 1.0);
  spec.workload.kind = WorkloadKind::kIncast;
  spec.workload.flows = 6;
  spec.workload.spread_steps = 20.0;
  spec.seed = 3;

  const std::vector<SenderSlot> a = expand_workload(spec);
  const std::vector<SenderSlot> b = expand_workload(spec);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_step, b[i].start_step) << i;
    EXPECT_GE(a[i].start_step, 0.0);
    EXPECT_LE(a[i].start_step, 20.0);
  }
  // A different seed draws a different arrival pattern.
  ScenarioSpec other = spec;
  other.seed = 4;
  const std::vector<SenderSlot> c = expand_workload(other);
  bool any_differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_differ = any_differ || a[i].start_step != c[i].start_step;
  }
  EXPECT_TRUE(any_differ);

  // And the expanded population is what both backends run.
  const RunTrace rt = backend_for(BackendKind::kFluid).run(spec);
  EXPECT_EQ(rt.trace.num_senders(), 6);
}

TEST(Workload, OnOffTrainsStayInsideTheHorizon) {
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(200);
  spec.add_sender(aimd, 1.0);
  spec.workload.kind = WorkloadKind::kOnOffHeavyTail;
  spec.workload.flows = 3;
  spec.workload.mean_on_steps = 30.0;
  spec.workload.mean_off_steps = 20.0;
  spec.workload.alpha = 1.5;
  const std::vector<SenderSlot> slots = expand_workload(spec);
  ASSERT_FALSE(slots.empty());
  for (const SenderSlot& slot : slots) {
    EXPECT_GE(slot.start_step, 0.0);
    ASSERT_GE(slot.stop_step, 0.0);  // every train has a finite stop
    EXPECT_GT(slot.stop_step, slot.start_step);
    EXPECT_LE(slot.stop_step, 200.0);
  }
}

TEST(Topology, FatTreeRoutesAreDeterministicEcmp) {
  const FatTreeTopology tree = make_fat_tree(4, 2, small_spec().link);
  EXPECT_EQ(tree.topology.num_links(), 2 * 4 * 2);
  const std::vector<int> r1 = tree.route(0, 1, 3, /*seed=*/9);
  const std::vector<int> r2 = tree.route(0, 1, 3, /*seed=*/9);
  EXPECT_EQ(r1, r2);
  ASSERT_EQ(r1.size(), 2u);
  // Up link belongs to the source leaf's uplink block, down link to the
  // spine's downlink block.
  EXPECT_GE(r1[0], 1 * 2);
  EXPECT_LT(r1[0], 2 * 2);
  EXPECT_GE(r1[1], 4 * 2);
  // Different flows can hash to different spines; the route always passes
  // validation when attached to a spec over this topology.
  const cc::Aimd aimd(1.0, 0.5);
  ScenarioSpec spec = small_spec(80);
  spec.topology = tree.topology;
  for (long f = 0; f < 6; ++f) {
    spec.add_routed_sender(aimd,
                           tree.route(f, static_cast<int>(f % 4),
                                      static_cast<int>((f + 1) % 4), 9));
  }
  EXPECT_NO_THROW(validate_scenario(spec));
}

}  // namespace
}  // namespace axiomcc::engine
