// Unit tests for the window-based sender: ACK clocking, monitor-interval loss
// accounting, write-off of lost packets, and RTT estimation — on a loopback
// harness with a programmable loss set.
#include "sim/sender.h"

#include <set>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/robust_aimd.h"
#include "sim/packet.h"
#include "util/check.h"

namespace axiomcc::sim {
namespace {

/// Loopback ports: data packets from the sender, ACKs back to it.
enum LoopbackPort : int { kData = 0, kAck = 1 };

/// Loopback network: every data packet the sender hands it is ACKed after
/// `rtt`, unless its seq is in `lost`.
struct Loopback final : PacketHandler {
  Simulator sim;
  SimTime rtt = SimTime::from_millis(40);
  std::set<std::uint64_t> lost;
  Sender* sender = nullptr;
  std::uint64_t packets_seen = 0;

  void on_packet_event(int port, const Packet& p) override {
    if (port == kAck) {
      sender->on_ack(p);
      return;
    }
    ++packets_seen;
    if (lost.contains(p.seq)) return;
    Packet ack = p;
    ack.size_bytes = kAckBytes;
    ack.is_ack = true;
    sim.schedule_packet_in(rtt, *this, kAck, ack);
  }
};

SenderConfig config_with_window(double w) {
  SenderConfig c;
  c.initial_window = w;
  c.initial_mi = SimTime::from_millis(40);
  return c;
}

TEST(Sender, AckClockingLimitsInFlight) {
  Loopback net;
  // A protocol that never changes the window isolates the clocking logic:
  // Robust-AIMD with a huge tolerance and tiny increase approximates "hold",
  // but simplest is AIMD with tiny increase.
  Sender sender(net.sim, config_with_window(2.0),
                std::make_unique<cc::Aimd>(0.001, 0.5), net, kData);
  net.sender = &sender;

  sender.start(SimTime(0));
  // Before any ACK can return (rtt = 40 ms), exactly floor(cwnd)=2 packets
  // may be in flight.
  net.sim.run_until(SimTime::from_millis(39));
  EXPECT_EQ(net.packets_seen, 2u);

  // After one RTT the ACKs release new packets.
  net.sim.run_until(SimTime::from_millis(41));
  EXPECT_EQ(net.packets_seen, 4u);
}

TEST(Sender, CleanRunReportsZeroLossAndGrowsWindow) {
  Loopback net;
  Sender sender(net.sim, config_with_window(2.0),
                std::make_unique<cc::Aimd>(1.0, 0.5), net, kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  net.sim.run_until(SimTime::from_seconds(5.0));

  EXPECT_GT(sender.packets_sent(), 100u);
  // Everything ACKed except the final in-flight window (the run cuts off
  // before those ACKs return).
  EXPECT_LE(sender.packets_sent() - sender.acks_received(),
            static_cast<std::uint64_t>(sender.cwnd()) + 5u);

  std::size_t evaluated = 0;
  for (const auto& rec : sender.history()) {
    if (!rec.evaluated) continue;
    ++evaluated;
    EXPECT_DOUBLE_EQ(rec.loss_rate, 0.0);
  }
  EXPECT_GT(evaluated, 50u);
  // AIMD grows ~1 MSS per MI with no loss.
  EXPECT_GT(sender.cwnd(), 50.0);
}

TEST(Sender, RttEstimateConvergesToPathRtt) {
  Loopback net;
  Sender sender(net.sim, config_with_window(2.0),
                std::make_unique<cc::Aimd>(1.0, 0.5), net, kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  net.sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_NEAR(sender.srtt_seconds(), 0.040, 0.001);

  // Evaluated MIs carry per-interval RTT means.
  for (const auto& rec : sender.history()) {
    if (rec.evaluated && rec.rtt_seconds > 0.0) {
      EXPECT_NEAR(rec.rtt_seconds, 0.040, 0.002);
    }
  }
}

TEST(Sender, LostPacketsAreWrittenOffAndReported) {
  Loopback net;
  // Lose a burst of packets early on.
  for (std::uint64_t seq = 4; seq < 10; ++seq) net.lost.insert(seq);

  Sender sender(net.sim, config_with_window(8.0),
                std::make_unique<cc::RobustAimd>(1.0, 0.5, 0.9), net, kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  net.sim.run_until(SimTime::from_seconds(3.0));

  // Every lost packet must eventually be written off: the sender keeps
  // sending long after the burst (no in_flight leak / stall).
  EXPECT_GT(sender.packets_sent(), 200u);
  EXPECT_GE(sender.acks_received() + 6u +
                static_cast<std::uint64_t>(sender.cwnd()) + 5u,
            sender.packets_sent());

  // Some evaluated MI observed the loss.
  bool saw_loss = false;
  for (const auto& rec : sender.history()) {
    if (rec.evaluated && rec.loss_rate > 0.0) saw_loss = true;
  }
  EXPECT_TRUE(saw_loss);
}

TEST(Sender, HistoryRecordsAccountForEverySequenceNumber) {
  Loopback net;
  net.lost = {4, 5, 6, 7, 8, 9, 60, 61, 150, 300, 301, 302};
  Sender sender(net.sim, config_with_window(8.0),
                std::make_unique<cc::RobustAimd>(1.0, 0.5, 0.9), net, kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  sender.stop_at(SimTime::from_seconds(3.0));
  net.sim.run();  // drains: every MI ends and its stragglers are written off

  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  for (const MonitorRecord& rec : sender.history()) {
    EXPECT_EQ(rec.first_seq, sent);  // the MIs tile the sequence space
    std::uint64_t lost_in_range = 0;
    for (std::uint64_t seq = rec.first_seq; seq < rec.first_seq + rec.sent;
         ++seq) {
      lost_in_range += net.lost.contains(seq) ? 1 : 0;
    }
    EXPECT_EQ(rec.lost, lost_in_range);
    EXPECT_LE(rec.lost_new_epoch, rec.lost);
    EXPECT_LE(rec.acked + rec.lost, rec.sent);  // no ACK outlives its write-off
    EXPECT_TRUE(rec.ended);
    sent += rec.sent;
    lost += rec.lost;
  }
  EXPECT_EQ(sent, sender.packets_sent());
  EXPECT_EQ(lost, net.lost.size());
}

TEST(Sender, TotalLossDoesNotDeadlock) {
  Loopback net;
  // Everything is lost: the sender must still cycle MIs, observe loss 1.0,
  // shrink to the floor, and keep probing.
  for (std::uint64_t seq = 0; seq < 100000; ++seq) net.lost.insert(seq);

  Sender sender(net.sim, config_with_window(4.0),
                std::make_unique<cc::Aimd>(1.0, 0.5), net, kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  net.sim.run_until(SimTime::from_seconds(3.0));

  EXPECT_GT(sender.packets_sent(), 20u);
  EXPECT_EQ(sender.acks_received(), 0u);
  EXPECT_NEAR(sender.cwnd(), 1.0, 0.6);

  bool saw_full_loss = false;
  for (const auto& rec : sender.history()) {
    if (rec.evaluated && rec.sent > 0 && rec.loss_rate == 1.0) {
      saw_full_loss = true;
    }
  }
  EXPECT_TRUE(saw_full_loss);
}

TEST(Sender, WindowRespectsConfiguredBounds) {
  Loopback net;
  SenderConfig cfg = config_with_window(2.0);
  cfg.max_window = 16.0;
  Sender sender(net.sim, cfg, std::make_unique<cc::Aimd>(5.0, 0.5), net,
                kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  net.sim.run_until(SimTime::from_seconds(3.0));
  EXPECT_LE(sender.cwnd(), 16.0);
}

TEST(Sender, StartTwiceViolatesContract) {
  Loopback net;
  Sender sender(net.sim, config_with_window(2.0),
                std::make_unique<cc::Aimd>(1.0, 0.5), net, kData);
  net.sender = &sender;
  sender.start(SimTime(0));
  EXPECT_THROW(sender.start(SimTime(1)), ContractViolation);
}

TEST(Sender, ConstructionContracts) {
  Loopback net;
  EXPECT_THROW(Sender(net.sim, config_with_window(2.0), nullptr, net, kData),
               ContractViolation);
  SenderConfig bad = config_with_window(2.0);
  bad.min_window = 0.0;
  EXPECT_THROW(Sender(net.sim, bad, std::make_unique<cc::Aimd>(1.0, 0.5), net,
                      kData),
               ContractViolation);
}

}  // namespace
}  // namespace axiomcc::sim
