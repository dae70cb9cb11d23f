// Tests for the network-wide fluid model (FluidSimulation's routed loop):
// route composition, fixed-point loads, and the parking-lot beat-down of
// multi-hop flows.
#include "fluid/sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cc/aimd.h"
#include "cc/robust_aimd.h"
#include "core/metrics.h"
#include "fluid/loss_model.h"
#include "recorder/recorder.h"
#include "scope/scope.h"
#include "util/check.h"
#include "util/stats.h"

namespace axiomcc::fluid {
namespace {

LinkParams small_link() { return make_link_mbps(20.0, 40.0, 20.0); }

/// A routed run over `links` copies of small_link() (link ids 0..links−1).
FluidSimulation make_network(int links, const SimOptions& options) {
  return FluidSimulation(std::vector<LinkParams>(links, small_link()),
                         options);
}

/// Adds one flow, a clone of `prototype` over `route`; returns its id.
int add_flow(FluidSimulation& net, const cc::Protocol& prototype,
             std::vector<int> route, double initial_window_mss = 1.0) {
  const int id = net.num_senders();
  net.add_sender(SenderSpec{prototype.clone(), initial_window_mss, 0, -1,
                            std::move(route)});
  return id;
}

/// The k-bottleneck parking lot, built flow by flow: flow 0 crosses links
/// 0..k−1, then one cross flow per link; every flow a clone of `prototype`
/// starting from window 1 (engine::apply_parking_lot's order).
struct ParkingLot {
  FluidSimulation network;
  int long_flow = 0;
  std::vector<int> short_flows;
};

ParkingLot make_parking_lot(int bottlenecks, const cc::Protocol& prototype,
                            const SimOptions& options) {
  ParkingLot lot{make_network(bottlenecks, options), 0, {}};
  std::vector<int> long_route;
  for (int i = 0; i < bottlenecks; ++i) long_route.push_back(i);
  lot.long_flow = add_flow(lot.network, prototype, long_route);
  for (const int link : long_route) {
    lot.short_flows.push_back(add_flow(lot.network, prototype, {link}));
  }
  return lot;
}

TEST(FluidNetwork, SingleLinkMatchesSingleLinkModel) {
  // A 1-link network must reproduce FluidSimulation's dynamics.
  SimOptions opt;
  opt.steps = 1500;
  FluidSimulation net = make_network(1, opt);
  add_flow(net, cc::Aimd(1.0, 0.5), {0});
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
  SimOptions opt;
  opt.steps = 2000;
  FluidSimulation net = make_network(2, opt);
  const cc::Aimd aimd(1.0, 0.5);
  const int long_flow = add_flow(net, aimd, {0, 1});
  add_flow(net, aimd, {0});
  add_flow(net, aimd, {1});
  const Trace trace = net.run();

  // The long flow's observed loss must at least match the max single-link
  // loss whenever both carry loss (composition ≥ max component).
  const auto long_loss = trace.observed_loss(long_flow);
  const auto binding = trace.congestion_loss();  // max per-link loss
  for (std::size_t t = 0; t < trace.num_steps(); ++t) {
    EXPECT_GE(long_loss[t] + 1e-12, binding[t] * 0.999999);
  }
}

TEST(FluidNetwork, CarriedLoadsReachTheFixedPointOnALongRoute) {
  // A 6-hop parking lot whose long flow starts above every link's C + τ:
  // every link is lossy at step 0, and link l's arrivals depend on the loss
  // of the l links before it, so the carried loads settle only after six
  // rounds. The long flow's step-0 loss must be the exact fixed point.
  constexpr int kLinks = 6;
  const FluidLink link(small_link());
  const double long_window = 4.0 * link.loss_threshold_mss();
  SimOptions opt;
  opt.steps = 1;
  FluidSimulation net = make_network(kLinks, opt);
  const cc::Aimd aimd(1.0, 0.5);
  std::vector<int> long_route;
  for (int l = 0; l < kLinks; ++l) long_route.push_back(l);
  const int long_flow = add_flow(net, aimd, long_route, long_window);
  for (const int l : long_route) add_flow(net, aimd, {l});
  const Trace trace = net.run();

  // Iterate the per-link loss from zero until no value changes, with the
  // routed loop's arrival order: the long flow, then each link's cross flow.
  std::vector<double> loss(kLinks, 0.0);
  for (bool changed = true; changed;) {
    changed = false;
    double carried = long_window;
    std::vector<double> next(kLinks);
    for (int l = 0; l < kLinks; ++l) {
      next[l] = link.loss_rate(carried + 1.0);
      carried *= 1.0 - loss[l];
    }
    for (int l = 0; l < kLinks; ++l) changed = changed || next[l] != loss[l];
    loss = next;
  }
  double survive = 1.0;
  for (const double l : loss) {
    EXPECT_GT(l, 0.0);
    survive *= 1.0 - l;
  }
  EXPECT_EQ(trace.observed_loss(long_flow)[0],
            combine_loss(1.0 - survive, 0.0));
}

TEST(FluidNetwork, SynchronizedAimdEqualizesEvenAcrossHops) {
  // A model insight the single-link analysis cannot show: with synchronized
  // feedback and a BINARY loss response (AIMD halves on any loss > 0), the
  // long flow and the short flows halve at the same instants, so multi-hop
  // loss composition does NOT beat the long flow down. The beat-down
  // requires loss-magnitude sensitivity (next test) or unsynchronized
  // packet-level drops (sim_network_test).
  SimOptions opt;
  opt.steps = 3000;
  ParkingLot lot = make_parking_lot(3, cc::Aimd(1.0, 0.5), opt);
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
  SimOptions opt;
  opt.steps = 3000;
  ParkingLot lot =
      make_parking_lot(3, cc::RobustAimd(1.0, 0.5, 0.01), opt);
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
    SimOptions opt;
    opt.steps = 3000;
    ParkingLot lot =
        make_parking_lot(bottlenecks, cc::RobustAimd(1.0, 0.5, 0.01), opt);
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
  // One-step scope windows from step 0 on: each link's efficiency sample is
  // that step's utilization, so their mean covers the full horizon.
  scope::ScopeConfig config;
  config.window_steps = 1;
  config.warmup_steps = 0;
  scope::MetricScope scope(config);
  SimOptions opt;
  opt.steps = 2000;
  opt.scope_sink = &scope;
  ParkingLot lot = make_parking_lot(2, cc::Aimd(1.0, 0.5), opt);
  (void)lot.network.run();
  for (int l = 0; l < 2; ++l) {
    const scope::Channel* c = scope.series().find(scope::SubjectKind::kLink, l,
                                                  scope::Axis::kEfficiency);
    ASSERT_NE(c, nullptr);
    ASSERT_EQ(c->samples.size(), 2000u);
    double sum = 0.0;
    for (const scope::WindowSample& w : c->samples) sum += w.value;
    const double u = sum / static_cast<double>(c->samples.size());
    EXPECT_GT(u, 0.6);
    EXPECT_LE(u, 1.0);
  }
}

TEST(FluidNetwork, ChurnedFlowIsZeroOutsideItsInterval) {
  SimOptions opt;
  opt.steps = 400;
  FluidSimulation net = make_network(1, opt);
  add_flow(net, cc::Aimd(1.0, 0.5), {0});
  SenderSpec churned;
  churned.protocol = std::make_unique<cc::Aimd>(1.0, 0.5);
  churned.route = {0};
  churned.initial_window_mss = 4.0;
  churned.start_step = 100;
  churned.stop_step = 300;
  const int f = net.num_senders();
  net.add_sender(std::move(churned));
  const Trace trace = net.run();

  const auto w = trace.windows(f);
  for (long t = 0; t < 100; ++t) EXPECT_EQ(w[static_cast<std::size_t>(t)], 0.0);
  EXPECT_GT(w[150], 0.0);
  for (std::size_t t = 305; t < trace.num_steps(); ++t) EXPECT_EQ(w[t], 0.0);
}

TEST(FluidNetwork, InjectedLossComposesAndIsSeedDeterministic) {
  const auto run_with_seed = [](std::uint64_t seed) {
    SimOptions opt;
    opt.steps = 600;
    FluidSimulation net = make_network(1, opt);
    add_flow(net, cc::Aimd(1.0, 0.5), {0});
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
    SimOptions opt;
    opt.steps = 800;
    FluidSimulation net = make_network(1, opt);
    add_flow(net, cc::Aimd(1.0, 0.5), {0});
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
    SimOptions opt;
    opt.steps = 800;
    FluidSimulation net = make_network(1, opt);
    add_flow(net, cc::Aimd(1.0, 0.5), {0});
    net.set_rtt_schedule(std::move(scale));
    const Trace trace = net.run();
    return mean_of(tail_view(trace.total_window(), 0.5));
  };
  EXPECT_GT(tail_total(Schedule{{{0, 2.0}}}), tail_total({}) * 1.3);
}

TEST(FluidNetwork, StepMonitorStopsEarly) {
  SimOptions opt;
  opt.steps = 2000;
  ParkingLot lot = make_parking_lot(2, cc::Aimd(1.0, 0.5), opt);
  lot.network.set_step_monitor(
      [](long step, std::span<const double>, double, double) {
        return step < 99;
      });
  const Trace trace = lot.network.run();
  EXPECT_EQ(trace.num_steps(), 100u);
}

TEST(FluidNetwork, AggregateTraceKeepsStatsAndTrackedSeries) {
  SimOptions opt;
  opt.steps = 500;
  opt.trace_detail = TraceDetail::kAggregate;
  opt.tracked_senders = 2;
  ParkingLot lot = make_parking_lot(3, cc::Aimd(1.0, 0.5), opt);
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

  SimOptions opt;
  opt.steps = 120;
  opt.record_sink = &sink;
  FluidSimulation net = make_network(1, opt);
  add_flow(net, cc::Aimd(1.0, 0.5), {0});
  SenderSpec late;
  late.protocol = std::make_unique<cc::Aimd>(1.0, 0.5);
  late.route = {0};
  late.start_step = 40;
  net.add_sender(std::move(late));
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
  const cc::Aimd aimd(1.0, 0.5);
  FluidSimulation net = make_network(1, {});
  EXPECT_THROW((void)net.run(), ContractViolation);  // no flows

  FluidSimulation net2 = make_network(2, {});
  EXPECT_THROW(add_flow(net2, aimd, {7}), ContractViolation);  // bad link id
  EXPECT_THROW(add_flow(net2, aimd, {}), ContractViolation);   // empty route
  EXPECT_THROW(add_flow(net2, aimd, {1, 1}), ContractViolation);  // a loop
  EXPECT_THROW(add_flow(net2, aimd, {0, 1, 0}), ContractViolation);
  EXPECT_THROW(net2.add_sender(SenderSpec{nullptr, 1.0, 0, -1, {0}}),
               ContractViolation);

  // A run has routes on every sender or on none.
  FluidSimulation net3 = make_network(1, {});
  add_flow(net3, aimd, {0});
  EXPECT_THROW(net3.add_sender(aimd, 1.0), ContractViolation);
  FluidSimulation net4(small_link());
  net4.add_sender(aimd, 1.0);
  EXPECT_THROW(add_flow(net4, aimd, {0}), ContractViolation);
}

}  // namespace
}  // namespace axiomcc::fluid
