// Tests for the network-wide fluid model: route composition, fixed-point
// loads, and the parking-lot beat-down of multi-hop flows.
#include "fluid/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fluid/sim.h"

#include "cc/aimd.h"
#include "cc/robust_aimd.h"
#include "core/metrics.h"
#include "fluid/loss_model.h"
#include "recorder/recorder.h"
#include "util/check.h"
#include "util/stats.h"

namespace axiomcc::fluid {
namespace {

LinkParams small_link() { return make_link_mbps(20.0, 40.0, 20.0); }

/// The k-bottleneck parking lot, built flow by flow: flow 0 crosses links
/// 0..k−1, then one cross flow per link; every flow a clone of `prototype`
/// starting from window 1 (engine::apply_parking_lot's order).
struct ParkingLot {
  FluidNetwork network;
  int long_flow = 0;
  std::vector<int> short_flows;
};

ParkingLot make_parking_lot(const LinkParams& per_link, int bottlenecks,
                            const cc::Protocol& prototype,
                            const NetworkOptions& options) {
  ParkingLot lot{FluidNetwork(options), 0, {}};
  std::vector<int> long_route;
  for (int i = 0; i < bottlenecks; ++i) {
    long_route.push_back(lot.network.add_link(per_link));
  }
  lot.long_flow = lot.network.add_flow(prototype.clone(), long_route, 1.0);
  for (const int link : long_route) {
    lot.short_flows.push_back(
        lot.network.add_flow(prototype.clone(), {link}, 1.0));
  }
  return lot;
}

TEST(FluidNetwork, SingleLinkMatchesSingleLinkModel) {
  // A 1-link network must reproduce FluidSimulation's dynamics.
  NetworkOptions opt;
  opt.steps = 1500;
  FluidNetwork net(opt);
  const int l = net.add_link(small_link());
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l}, 1.0);
  const Trace trace = net.run();

  SimOptions sopt;
  sopt.steps = 1500;
  const Trace reference =
      run_homogeneous(small_link(), cc::Aimd(1.0, 0.5), 1, 1.0, sopt);

  ASSERT_EQ(trace.num_steps(), reference.num_steps());
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_NEAR(trace.windows(0)[t], reference.windows(0)[t], 1e-9);
  }
}

TEST(FluidNetwork, RouteLossComposesAcrossLinks) {
  // A flow crossing two saturated links observes the composition of their
  // loss rates: run one long flow + per-link cross flows until both links
  // are lossy, then compare the long flow's observed loss against per-link.
  NetworkOptions opt;
  opt.steps = 2000;
  FluidNetwork net(opt);
  const int l0 = net.add_link(small_link());
  const int l1 = net.add_link(small_link());
  const int long_flow =
      net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l0, l1}, 1.0);
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l0}, 1.0);
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l1}, 1.0);
  const Trace trace = net.run();

  // The long flow's observed loss must at least match the max single-link
  // loss whenever both carry loss (composition ≥ max component).
  const auto long_loss = trace.observed_loss(long_flow);
  const auto binding = trace.congestion_loss();  // max per-link loss
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_GE(long_loss[t] + 1e-12, binding[t] * 0.999999);
  }
}

TEST(FluidNetwork, SynchronizedAimdEqualizesEvenAcrossHops) {
  // A model insight the single-link analysis cannot show: with synchronized
  // feedback and a BINARY loss response (AIMD halves on any loss > 0), the
  // long flow and the short flows halve at the same instants, so multi-hop
  // loss composition does NOT beat the long flow down. The beat-down
  // requires loss-magnitude sensitivity (next test) or unsynchronized
  // packet-level drops (sim_network_test).
  NetworkOptions opt;
  opt.steps = 3000;
  ParkingLot lot = make_parking_lot(small_link(), 3, cc::Aimd(1.0, 0.5), opt);
  const Trace trace = lot.network.run();

  const double long_avg =
      mean_of(tail_view(trace.windows(lot.long_flow), 0.5));
  const double short_avg =
      mean_of(tail_view(trace.windows(lot.short_flows[0]), 0.5));
  EXPECT_NEAR(long_avg / short_avg, 1.0, 0.05);
}

TEST(FluidNetwork, ParkingLotBeatsDownLossMagnitudeSensitiveFlows) {
  // Robust-AIMD compares the loss RATE against its threshold; the long
  // flow's composed loss (≈ 3×) crosses the threshold when the short flows'
  // does not, so it backs off more often and is beaten down.
  NetworkOptions opt;
  opt.steps = 3000;
  ParkingLot lot =
      make_parking_lot(small_link(), 3, cc::RobustAimd(1.0, 0.5, 0.01), opt);
  const Trace trace = lot.network.run();

  const double long_avg =
      mean_of(tail_view(trace.windows(lot.long_flow), 0.5));
  double short_avg_sum = 0.0;
  for (int f : lot.short_flows) {
    short_avg_sum += mean_of(tail_view(trace.windows(f), 0.5));
  }
  const double short_avg =
      short_avg_sum / static_cast<double>(lot.short_flows.size());

  EXPECT_LT(long_avg, short_avg * 0.6);
  EXPECT_GT(long_avg, 0.0);
}

TEST(FluidNetwork, MoreBottlenecksHurtMore) {
  const auto long_share = [](int bottlenecks) {
    NetworkOptions opt;
    opt.steps = 3000;
    ParkingLot lot = make_parking_lot(small_link(), bottlenecks,
                                      cc::RobustAimd(1.0, 0.5, 0.01), opt);
    const Trace trace = lot.network.run();
    const double long_avg =
        mean_of(tail_view(trace.windows(lot.long_flow), 0.5));
    const double short_avg =
        mean_of(tail_view(trace.windows(lot.short_flows[0]), 0.5));
    return long_avg / short_avg;
  };
  EXPECT_GT(long_share(1), long_share(3));
  EXPECT_GT(long_share(3), long_share(6) * 0.999);
}

TEST(FluidNetwork, LinksStayUtilized) {
  NetworkOptions opt;
  opt.steps = 2000;
  ParkingLot lot = make_parking_lot(small_link(), 2, cc::Aimd(1.0, 0.5), opt);
  (void)lot.network.run();
  for (double u : lot.network.link_mean_utilization()) {
    EXPECT_GT(u, 0.6);
    EXPECT_LE(u, 1.0);
  }
}

TEST(FluidNetwork, ChurnedFlowIsZeroOutsideItsInterval) {
  NetworkOptions opt;
  opt.steps = 400;
  FluidNetwork net(opt);
  const int l = net.add_link(small_link());
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l}, 1.0);
  FluidNetwork::FlowSpec churned;
  churned.protocol = std::make_unique<cc::Aimd>(1.0, 0.5);
  churned.route = {l};
  churned.initial_window_mss = 4.0;
  churned.start_step = 100;
  churned.stop_step = 300;
  const int f = net.add_flow(std::move(churned));
  const Trace trace = net.run();

  const auto w = trace.windows(f);
  for (long t = 0; t < 100; ++t) EXPECT_EQ(w[static_cast<std::size_t>(t)], 0.0);
  EXPECT_GT(w[150], 0.0);
  for (std::size_t t = 305; t < trace.num_steps(); ++t) EXPECT_EQ(w[t], 0.0);
}

TEST(FluidNetwork, InjectedLossComposesAndIsSeedDeterministic) {
  const auto run_with_seed = [](std::uint64_t seed) {
    NetworkOptions opt;
    opt.steps = 600;
    FluidNetwork net(opt);
    const int l = net.add_link(small_link());
    net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l}, 1.0);
    net.set_loss_injector(
        std::make_unique<BernoulliLoss>(0.2, 0.05, seed));
    return net.run();
  };
  const Trace a = run_with_seed(7);
  const Trace b = run_with_seed(7);
  double injected_observed = 0.0;
  for (std::size_t t = 0; t < a.num_steps(); ++t) {
    ASSERT_EQ(a.windows(0)[t], b.windows(0)[t]) << t;
    // Observed loss includes the injected component on top of congestion.
    injected_observed +=
        std::max(0.0, a.observed_loss(0)[t] - a.congestion_loss()[t]);
  }
  EXPECT_GT(injected_observed, 0.0);
}

TEST(FluidNetwork, BandwidthScheduleShrinksTheAchievableWindow) {
  const auto tail_total = [](Schedule scale) {
    NetworkOptions opt;
    opt.steps = 800;
    FluidNetwork net(opt);
    const int l = net.add_link(small_link());
    net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l}, 1.0);
    net.set_bandwidth_schedule(std::move(scale));
    const Trace trace = net.run();
    return mean_of(tail_view(trace.total_window(), 0.5));
  };
  const double base = tail_total({});
  const double halved = tail_total(Schedule{{{0, 0.5}}});
  EXPECT_LT(halved, base * 0.75);
  EXPECT_GT(halved, 0.0);
}

TEST(FluidNetwork, RttScheduleGrowsPipeCapacity) {
  // Scaling Θ up scales C = B·2Θ up with it, so the steady-state window
  // under a doubled-RTT schedule sits well above the unscaled run's.
  const auto tail_total = [](Schedule scale) {
    NetworkOptions opt;
    opt.steps = 800;
    FluidNetwork net(opt);
    const int l = net.add_link(small_link());
    net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l}, 1.0);
    net.set_rtt_schedule(std::move(scale));
    const Trace trace = net.run();
    return mean_of(tail_view(trace.total_window(), 0.5));
  };
  EXPECT_GT(tail_total(Schedule{{{0, 2.0}}}), tail_total({}) * 1.3);
}

TEST(FluidNetwork, StepMonitorStopsEarlyAndUtilizationCoversRunSteps) {
  NetworkOptions opt;
  opt.steps = 2000;
  ParkingLot lot = make_parking_lot(small_link(), 2, cc::Aimd(1.0, 0.5), opt);
  lot.network.set_step_monitor(
      [](long step, std::span<const double>, double, double) {
        return step < 99;
      });
  const Trace trace = lot.network.run();
  EXPECT_EQ(trace.num_steps(), 100u);
  // The mean covers only the executed prefix, and the links were busy.
  ASSERT_EQ(lot.network.link_mean_utilization().size(), 2u);
  for (double u : lot.network.link_mean_utilization()) {
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(FluidNetwork, AggregateTraceKeepsStatsAndTrackedSeries) {
  NetworkOptions opt;
  opt.steps = 500;
  opt.trace_detail = TraceDetail::kAggregate;
  opt.tracked_senders = 2;
  ParkingLot lot = make_parking_lot(small_link(), 3, cc::Aimd(1.0, 0.5), opt);
  const Trace trace = lot.network.run();

  EXPECT_EQ(trace.detail(), TraceDetail::kAggregate);
  EXPECT_EQ(trace.num_senders(), 4);  // long flow + 3 cross flows
  EXPECT_EQ(trace.tracked_senders().size(), 2u);
  EXPECT_TRUE(trace.tracks(trace.tracked_senders()[0]));
  ASSERT_EQ(trace.window_mean().size(), trace.num_steps());
  const double tail_mean = mean_of(tail_view(trace.window_mean(), 0.5));
  EXPECT_GT(tail_mean, 0.0);
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_LE(trace.window_min()[t], trace.window_max()[t]);
    EXPECT_EQ(trace.active_senders()[t], 4);
  }
}

TEST(FluidNetwork, RecorderCapturesNetworkRuns) {
  recorder::RecordOptions ropts;
  ropts.enabled = true;
  recorder::Recorder sink(ropts);

  NetworkOptions opt;
  opt.steps = 120;
  opt.record_sink = &sink;
  FluidNetwork net(opt);
  const int l = net.add_link(small_link());
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l}, 1.0);
  FluidNetwork::FlowSpec late;
  late.protocol = std::make_unique<cc::Aimd>(1.0, 0.5);
  late.route = {l};
  late.start_step = 40;
  net.add_flow(std::move(late));
  (void)net.run();

  const recorder::Recording rec = sink.snapshot();
  ASSERT_FALSE(rec.empty());
  EXPECT_EQ(rec.backend, "fluid");
  bool saw_join = false;
  bool saw_window = false;
  for (const recorder::Event& e : rec.events) {
    saw_join = saw_join || (e.cls == recorder::EventClass::kChurn &&
                            e.code == recorder::EventCode::kJoin);
    saw_window = saw_window || e.cls == recorder::EventClass::kWindow;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_window);
}

TEST(FluidNetwork, ContractChecks) {
  FluidNetwork net;
  EXPECT_THROW((void)net.run(), ContractViolation);  // no flows

  FluidNetwork net2;
  const int l = net2.add_link(small_link());
  EXPECT_THROW(
      net2.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l + 7}, 1.0),
      ContractViolation);  // bad link id
  EXPECT_THROW(net2.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {}, 1.0),
               ContractViolation);  // empty route
  EXPECT_THROW(net2.add_flow(nullptr, {l}, 1.0), ContractViolation);
}

}  // namespace
}  // namespace axiomcc::fluid
