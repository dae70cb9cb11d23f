// Pins the packet simulator's event order. Each run below hashes its sampled
// trace and reports the kernel's event count; both are compared against
// constants, so a kernel change that reorders, drops or duplicates a single
// event moves a digest. Between them the runs exercise every event source:
// link tx-done and delivery, the ACK return, sender MI/grace/pacing timers,
// trace samples, flow start/stop, a mid-run control event, RED's random
// drops, injected forward loss, and a propagation delay that shrinks while
// packets are in flight, so later deliveries overtake earlier ones.
//
// Only AIMD and Robust-AIMD run here: their window updates use +, -, * and /
// alone, so the pinned constants do not depend on the platform's libm.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/robust_aimd.h"
#include "sim/dumbbell.h"
#include "sim/network.h"

namespace axiomcc::sim {
namespace {

struct RunPin {
  std::string trace_digest;
  std::size_t events = 0;
};

/// FNV-1a over the bit patterns of a series.
void mix(std::uint64_t& h, std::span<const double> series) {
  for (const double x : series) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
}

RunPin pin(MultiHopNetwork& net) {
  const fluid::Trace& trace = net.trace();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < trace.num_senders(); ++i) {
    mix(h, trace.windows(i));
    mix(h, trace.observed_loss(i));
  }
  mix(h, trace.total_window());
  mix(h, trace.rtt_seconds());
  mix(h, trace.congestion_loss());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return RunPin{hex, net.simulator().events_processed()};
}

TEST(PacketEventOrder, TwoFlowAimdDumbbell) {
  DumbbellConfig cfg;
  cfg.bottleneck_mbps = 10.0;
  cfg.rtt_ms = 40.0;
  cfg.buffer_packets = 25;
  cfg.duration_seconds = 10.0;
  DumbbellExperiment exp(cfg);
  exp.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5));
  exp.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), 0.5);
  exp.run();

  const RunPin p = pin(exp);
  EXPECT_EQ(p.trace_digest, "f695e59b7637f9b0");
  EXPECT_EQ(p.events, 24467u);
}

TEST(PacketEventOrder, RedRandomLossRobustAimdDumbbell) {
  DumbbellConfig cfg;
  cfg.bottleneck_mbps = 10.0;
  cfg.rtt_ms = 40.0;
  cfg.buffer_packets = 60;
  cfg.duration_seconds = 10.0;
  cfg.use_red = true;
  cfg.red.min_threshold = 10.0;
  cfg.red.max_threshold = 40.0;
  cfg.red.seed = 11;
  cfg.random_loss_rate = 0.01;
  cfg.seed = 7;
  DumbbellExperiment exp(cfg);
  exp.add_flow(std::make_unique<cc::RobustAimd>(1.0, 0.8, 0.01));
  exp.add_flow(std::make_unique<cc::RobustAimd>(1.0, 0.8, 0.01), 1.0);
  exp.run();

  const RunPin p = pin(exp);
  EXPECT_EQ(p.trace_digest, "6721a60b8ee0e3cf");
  EXPECT_EQ(p.events, 23529u);
}

TEST(PacketEventOrder, ParkingLotWithChurnAndRateChange) {
  MultiHopNetwork::Config cfg;
  cfg.duration_seconds = 10.0;
  MultiHopNetwork net(cfg);
  const int l0 = net.add_link(10.0, 10.0, 25);
  const int l1 = net.add_link(10.0, 10.0, 25);
  const int l2 = net.add_link(10.0, 10.0, 25);
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l0, l1, l2});
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l0});
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l1}, 2.0, 2.0, 7.0);
  net.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), {l2}, 4.0);
  net.simulator().schedule_at(SimTime::from_seconds(5.0), [&net, l1] {
    net.mutable_link(l1).set_rate_bps(5e6);
  });
  net.run();

  const RunPin p = pin(net);
  EXPECT_EQ(p.trace_digest, "b1571695ea5a458d");
  EXPECT_EQ(p.events, 51544u);
}

TEST(PacketEventOrder, RttShrinkWhilePacketsInFlight) {
  // An RTT schedule as the packet backend installs one: the forward delay
  // drops from 20 ms to 2 ms and back every second. Packets already past
  // the queue keep their old delay, so each shrink lets deliveries scheduled
  // after it run before deliveries scheduled before it.
  DumbbellConfig cfg;
  cfg.bottleneck_mbps = 10.0;
  cfg.rtt_ms = 40.0;
  cfg.buffer_packets = 25;
  cfg.duration_seconds = 10.0;
  DumbbellExperiment exp(cfg);
  exp.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5));
  exp.add_flow(std::make_unique<cc::Aimd>(1.0, 0.5), 0.5);
  for (int k = 1; k < 10; ++k) {
    const SimTime delay = SimTime::from_millis(k % 2 == 1 ? 2.0 : 20.0);
    exp.simulator().schedule_at(SimTime::from_seconds(k), [&exp, delay] {
      exp.mutable_link(0).set_propagation_delay(delay);
    });
  }
  exp.run();

  const RunPin p = pin(exp);
  EXPECT_EQ(p.trace_digest, "801f802c7305bdaa");
  EXPECT_EQ(p.events, 24430u);
}

}  // namespace
}  // namespace axiomcc::sim
