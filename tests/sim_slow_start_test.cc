// Tests for TCP slow start in the packet sender.
#include <set>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "sim/packet.h"
#include "sim/sender.h"

namespace axiomcc::sim {
namespace {

/// Same loopback harness as sim_sender_test.
struct Loopback {
  Simulator sim;
  SimTime rtt = SimTime::from_millis(40);
  std::set<std::uint64_t> lost;
  Sender* sender = nullptr;

  SendFn send_fn() {
    return [this](const Packet& p) {
      if (lost.contains(p.seq)) return;
      Packet ack;
      ack.flow_id = p.flow_id;
      ack.seq = p.seq;
      ack.size_bytes = kAckBytes;
      ack.is_ack = true;
      ack.sent_at = p.sent_at;
      sim.schedule_in(rtt, [this, ack] { sender->on_ack(ack); });
    };
  }
};

SenderConfig slow_start_config(double ssthresh) {
  SenderConfig c;
  c.initial_window = 2.0;
  c.initial_mi = SimTime::from_millis(40);
  c.slow_start = true;
  c.initial_ssthresh = ssthresh;
  return c;
}

TEST(SlowStart, DoublesUntilSsthreshThenHandsOver) {
  Loopback net;
  Sender sender(net.sim, slow_start_config(32.0),
                std::make_unique<cc::Aimd>(1.0, 0.5), net.send_fn());
  net.sender = &sender;
  sender.start(SimTime(0));

  EXPECT_TRUE(sender.in_slow_start());
  net.sim.run_until(SimTime::from_seconds(3.0));
  EXPECT_FALSE(sender.in_slow_start());

  // After exiting at ssthresh = 32, AIMD adds ~1 MSS per interval.
  EXPECT_GT(sender.cwnd(), 32.0);
  EXPECT_LT(sender.cwnd(), 32.0 + 80.0);
}

TEST(SlowStart, RampIsExponentiallyFasterThanCongestionAvoidance) {
  const auto window_after = [](bool slow_start) {
    Loopback net;
    SenderConfig cfg = slow_start_config(1e9);
    cfg.max_window = 4096.0;  // keep the loopback's packet count bounded
    cfg.slow_start = slow_start;
    Sender sender(net.sim, cfg, std::make_unique<cc::Aimd>(1.0, 0.5),
                  net.send_fn());
    net.sender = &sender;
    sender.start(SimTime(0));
    net.sim.run_until(SimTime::from_seconds(1.0));
    return sender.cwnd();
  };
  EXPECT_GT(window_after(true), window_after(false) * 4.0);
}

TEST(SlowStart, LossExitsAndSetsSsthresh) {
  Loopback net;
  for (std::uint64_t seq = 40; seq < 46; ++seq) net.lost.insert(seq);

  Sender sender(net.sim, slow_start_config(1e9),
                std::make_unique<cc::Aimd>(1.0, 0.5), net.send_fn());
  net.sender = &sender;
  sender.start(SimTime(0));
  net.sim.run_until(SimTime::from_seconds(3.0));

  EXPECT_FALSE(sender.in_slow_start());
  EXPECT_LT(sender.ssthresh(), 1e9);
  // The protocol's halving applied on exit; growth resumed additively.
  EXPECT_GT(sender.cwnd(), 4.0);
}

TEST(SlowStart, DisabledByDefault) {
  Loopback net;
  SenderConfig cfg;
  cfg.initial_mi = SimTime::from_millis(40);
  Sender sender(net.sim, cfg, std::make_unique<cc::Aimd>(1.0, 0.5),
                net.send_fn());
  net.sender = &sender;
  EXPECT_FALSE(sender.in_slow_start());
}

}  // namespace
}  // namespace axiomcc::sim
