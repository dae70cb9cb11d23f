// Tests for the fluid-flow simulation driver: dynamics shapes, trace
// recording, loss injection, and lifecycle contracts.
#include "fluid/sim.h"

#include <algorithm>
#include <span>
#include <utility>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/mimd.h"
#include "cc/presets.h"
#include "util/check.h"

namespace axiomcc::fluid {
namespace {

LinkParams paper_link() { return make_link_mbps(30.0, 42.0, 100.0); }

TEST(FluidSimulation, SingleAimdProducesSawtooth) {
  SimOptions opt;
  opt.steps = 2000;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  const Trace trace = sim.run();

  const auto windows = trace.windows(0);
  ASSERT_EQ(windows.size(), 2000u);

  // The window must repeatedly climb to the loss threshold (205) and halve.
  double peak = 0.0;
  double trough = 1e18;
  for (std::size_t t = 1000; t < windows.size(); ++t) {
    peak = std::max(peak, windows[t]);
    trough = std::min(trough, windows[t]);
  }
  EXPECT_GT(peak, 200.0);
  EXPECT_LT(peak, 210.0);
  EXPECT_GT(trough, 95.0);   // ~peak/2
  EXPECT_LT(trough, 110.0);
}

TEST(FluidSimulation, SawtoothPeriodMatchesTheory) {
  // After halving from ~C+τ, AIMD(1,b) needs about (1-b)(C+τ) steps to climb
  // back: ~103 steps for the paper link.
  SimOptions opt;
  opt.steps = 2000;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  const Trace trace = sim.run();

  const auto loss = trace.congestion_loss();
  std::vector<std::size_t> loss_steps;
  for (std::size_t t = 500; t < loss.size(); ++t) {
    if (loss[t] > 0.0) loss_steps.push_back(t);
  }
  ASSERT_GE(loss_steps.size(), 3u);
  for (std::size_t i = 1; i < loss_steps.size(); ++i) {
    const auto period = loss_steps[i] - loss_steps[i - 1];
    EXPECT_NEAR(static_cast<double>(period), 103.0, 4.0);
  }
}

TEST(FluidSimulation, SynchronizedFeedbackEqualizesAimdSenders) {
  SimOptions opt;
  opt.steps = 4000;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 10.0);
  sim.add_sender(cc::Aimd(1.0, 0.5), 150.0);  // very unequal start
  const Trace trace = sim.run();

  const auto w0 = trace.windows(0);
  const auto w1 = trace.windows(1);
  // Multiplicative decrease shrinks the absolute gap; by the tail the two
  // windows must be nearly identical.
  const std::size_t last = trace.num_steps() - 1;
  EXPECT_NEAR(w0[last] / w1[last], 1.0, 0.05);
}

TEST(FluidSimulation, MimdPreservesInitialRatios) {
  SimOptions opt;
  opt.steps = 3000;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Mimd(1.01, 0.875), 10.0);
  sim.add_sender(cc::Mimd(1.01, 0.875), 40.0);
  const Trace trace = sim.run();

  const std::size_t last = trace.num_steps() - 1;
  const double ratio = trace.windows(0)[last] / trace.windows(1)[last];
  // Purely multiplicative updates keep the 1:4 ratio forever.
  EXPECT_NEAR(ratio, 0.25, 0.01);
}

TEST(FluidSimulation, TraceRecordsRttAndLossConsistently) {
  SimOptions opt;
  opt.steps = 500;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  const Trace trace = sim.run();

  const FluidLink link(paper_link());
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    const double x = trace.total_window()[t];
    EXPECT_DOUBLE_EQ(trace.rtt_seconds()[t], link.rtt(x).value());
    EXPECT_DOUBLE_EQ(trace.congestion_loss()[t], link.loss_rate(x));
  }
}

TEST(FluidSimulation, WindowsRespectBounds) {
  SimOptions opt;
  opt.steps = 300;
  opt.min_window_mss = 2.0;
  opt.max_window_mss = 50.0;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Mimd(1.5, 0.1), 10.0);  // violent oscillations
  const Trace trace = sim.run();
  for (double w : trace.windows(0)) {
    EXPECT_GE(w, 2.0);
    EXPECT_LE(w, 50.0);
  }
}

TEST(FluidSimulation, ConstantLossInjectionReachesSenders) {
  SimOptions opt;
  opt.steps = 50;
  LinkParams huge = paper_link();
  huge.bandwidth = Bandwidth::from_mss_per_sec(1e12);
  FluidSimulation sim(huge, opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 10.0);
  sim.set_loss_injector(std::make_unique<ConstantLoss>(0.02));
  const Trace trace = sim.run();

  // No congestion loss, but every observation carries the injected 2%.
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_DOUBLE_EQ(trace.congestion_loss()[t], 0.0);
    EXPECT_NEAR(trace.observed_loss(0)[t], 0.02, 1e-12);
  }
  // AIMD treats any loss as congestion: the window decays to the floor.
  EXPECT_LE(trace.windows(0).back(), 2.0);
}

TEST(FluidSimulation, CombineLossComposesIndependently) {
  EXPECT_DOUBLE_EQ(combine_loss(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(combine_loss(0.5, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(combine_loss(0.0, 0.25), 0.25);
  EXPECT_NEAR(combine_loss(0.5, 0.5), 0.75, 1e-12);
}

TEST(FluidSimulation, BernoulliInjectorIsDeterministicPerSeed) {
  const auto run_with_seed = [](std::uint64_t seed) {
    SimOptions opt;
    opt.steps = 200;
    FluidSimulation sim(paper_link(), opt);
    sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
    sim.set_loss_injector(std::make_unique<BernoulliLoss>(0.1, 0.05, seed));
    const Trace t = sim.run();
    std::vector<double> loss(t.observed_loss(0).begin(),
                             t.observed_loss(0).end());
    return loss;
  };
  EXPECT_EQ(run_with_seed(7), run_with_seed(7));
  EXPECT_NE(run_with_seed(7), run_with_seed(8));
}

TEST(FluidSimulation, RttScheduleScalesRttAndCapacity) {
  SimOptions opt;
  opt.steps = 400;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  sim.set_rtt_schedule(Schedule{{{200, 3.0}}});
  const Trace trace = sim.run();

  // Base RTT triples once the schedule kicks in (queueing aside, compare the
  // empty-queue floor: at fixed window the recorded RTT must jump).
  const FluidLink nominal(paper_link());
  const double base_rtt = nominal.rtt(1.0).value();
  EXPECT_NEAR(trace.rtt_seconds()[0], base_rtt, 1e-9);
  EXPECT_GE(trace.rtt_seconds()[210], 2.0 * base_rtt);
}

TEST(FluidSimulation, ChurnedSenderIsZeroOutsideItsInterval) {
  SimOptions opt;
  opt.steps = 300;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);

  SenderSpec late;
  late.protocol = cc::Aimd(1.0, 0.5).clone();
  late.initial_window_mss = 5.0;
  late.start_step = 100;
  late.stop_step = 200;
  sim.add_sender(std::move(late));

  const Trace trace = sim.run();
  const auto w = trace.windows(1);
  for (long t = 0; t < 100; ++t) EXPECT_DOUBLE_EQ(w[t], 0.0) << t;
  EXPECT_DOUBLE_EQ(w[100], 5.0);  // joins at its initial window
  EXPECT_GT(w[199], 0.0);
  for (long t = 200; t < 300; ++t) EXPECT_DOUBLE_EQ(w[t], 0.0) << t;

  // While alone, sender 0 owns the link; the joiner visibly dents the
  // aggregate available to it.
  EXPECT_GT(trace.windows(0)[99], 0.0);
}

TEST(FluidSimulation, ChurnValidatesTheInterval) {
  FluidSimulation sim(paper_link());
  SenderSpec bad;
  bad.protocol = cc::Aimd(1.0, 0.5).clone();
  bad.start_step = -5;
  EXPECT_THROW(sim.add_sender(std::move(bad)), ContractViolation);

  SenderSpec inverted;
  inverted.protocol = cc::Aimd(1.0, 0.5).clone();
  inverted.start_step = 100;
  inverted.stop_step = 50;
  EXPECT_THROW(sim.add_sender(std::move(inverted)), ContractViolation);
}

TEST(FluidSimulation, StepMonitorObservesAndCanStopTheRun) {
  SimOptions opt;
  opt.steps = 500;
  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);

  long last_seen = -1;
  sim.set_step_monitor([&](long step, std::span<const double> windows,
                           double rtt_seconds, double) {
    EXPECT_EQ(windows.size(), 1u);
    EXPECT_GT(rtt_seconds, 0.0);
    last_seen = step;
    return step < 123;  // stop after step 123
  });
  const Trace trace = sim.run();

  EXPECT_EQ(last_seen, 123);
  EXPECT_EQ(trace.num_steps(), 124u);  // steps 0..123 are recorded
}

TEST(FluidSimulation, LifecycleContracts) {
  FluidSimulation sim(paper_link());
  EXPECT_THROW((void)sim.run(), ContractViolation);  // no senders

  FluidSimulation sim2(paper_link(), SimOptions{10, 1.0, 1e9});
  sim2.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  (void)sim2.run();
  EXPECT_THROW((void)sim2.run(), ContractViolation);  // run twice
}

TEST(RunHomogeneous, ConvenienceMatchesManualSetup) {
  SimOptions opt;
  opt.steps = 100;
  const Trace a = run_homogeneous(paper_link(), cc::Aimd(1.0, 0.5), 2, 5.0, opt);

  FluidSimulation sim(paper_link(), opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 5.0);
  sim.add_sender(cc::Aimd(1.0, 0.5), 5.0);
  const Trace b = sim.run();

  ASSERT_EQ(a.num_steps(), b.num_steps());
  for (std::size_t t = 0; t < a.num_steps(); ++t) {
    EXPECT_DOUBLE_EQ(a.total_window()[t], b.total_window()[t]);
  }
}

}  // namespace
}  // namespace axiomcc::fluid
