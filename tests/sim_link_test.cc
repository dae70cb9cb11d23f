// Unit tests for SimLink: exact serialization + propagation timing, pipeline
// behaviour under backlog, and drop accounting.
#include "sim/link.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::sim {
namespace {

Packet data(std::uint64_t seq, int bytes = 1500) {
  Packet p;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

struct Arrival {
  int port;
  std::uint64_t seq;
  SimTime at;
};

/// Records every delivery with its port and time.
struct Sink final : PacketHandler {
  explicit Sink(const Simulator& simulator) : sim(simulator) {}
  void on_packet_event(int port, const Packet& p) override {
    arrivals.push_back({port, p.seq, sim.now()});
  }
  const Simulator& sim;
  std::vector<Arrival> arrivals;
};

TEST(SimLink, SinglePacketTimingIsExact) {
  Simulator sim;
  Sink sink(sim);
  // 12 Mbps link: a 1500-byte packet serializes in exactly 1 ms.
  SimLink link(sim, 12e6, SimTime::from_millis(5),
               std::make_unique<DropTailQueue>(10), sink, 7);

  link.send(data(0));
  sim.run();

  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].at, SimTime::from_millis(6));  // 1 ms + 5 ms
  EXPECT_EQ(sink.arrivals[0].port, 7);
}

TEST(SimLink, BackToBackPacketsPipelineAtLineRate) {
  Simulator sim;
  Sink sink(sim);
  SimLink link(sim, 12e6, SimTime::from_millis(5),
               std::make_unique<DropTailQueue>(10), sink, 0);

  for (std::uint64_t i = 0; i < 3; ++i) link.send(data(i));
  sim.run();

  const auto& arrivals = sink.arrivals;
  ASSERT_EQ(arrivals.size(), 3u);
  // Deliveries are spaced by one serialization time (1 ms), in order.
  EXPECT_EQ(arrivals[0].at, SimTime::from_millis(6));
  EXPECT_EQ(arrivals[1].at, SimTime::from_millis(7));
  EXPECT_EQ(arrivals[2].at, SimTime::from_millis(8));
  EXPECT_EQ(arrivals[0].seq, 0u);
  EXPECT_EQ(arrivals[2].seq, 2u);
}

TEST(SimLink, SerializationScalesWithPacketSize) {
  Simulator sim;
  Sink sink(sim);
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(1),
               sink, 0);
  EXPECT_EQ(link.serialization_time(1500), SimTime::from_millis(1));
  EXPECT_EQ(link.serialization_time(750), SimTime::from_micros(500));
  EXPECT_THROW((void)link.serialization_time(0), ContractViolation);
}

TEST(SimLink, MixedSizesAndRateChangesSerializeAtTheCurrentRate) {
  // Packets of alternating sizes, then a rate change between two packets of
  // the same size: each transmission takes its own size's time at the rate
  // in force when it starts.
  Simulator sim;
  Sink sink(sim);
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(10),
               sink, 0);
  link.send(data(0, 1500));  // 1 ms
  link.send(data(1, 750));   // 0.5 ms
  link.send(data(2, 1500));  // 1 ms
  sim.run();
  link.set_rate_bps(6e6);
  link.send(data(3, 1500));  // 2 ms at half the rate
  sim.run();

  const auto& arrivals = sink.arrivals;
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_EQ(arrivals[0].at, SimTime::from_micros(1000));
  EXPECT_EQ(arrivals[1].at, SimTime::from_micros(1500));
  EXPECT_EQ(arrivals[2].at, SimTime::from_micros(2500));
  EXPECT_EQ(arrivals[3].at, SimTime::from_micros(4500));
}

TEST(SimLink, OverflowCountsDrops) {
  Simulator sim;
  Sink sink(sim);
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(2),
               sink, 0);

  // One packet goes straight to the transmitter; two fill the queue; the
  // rest drop. (The in-service packet is dequeued immediately, so capacity 2
  // holds packets 1 and 2 while 0 transmits.)
  for (std::uint64_t i = 0; i < 6; ++i) link.send(data(i));
  sim.run();

  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(link.packets_dropped(), 3u);
  EXPECT_EQ(link.packets_accepted(), 3u);
  EXPECT_EQ(link.packets_delivered(), 3u);
  EXPECT_EQ(link.bytes_delivered(), 3u * 1500u);
}

TEST(SimLink, IdleLinkRestartsCleanly) {
  Simulator sim;
  Sink sink(sim);
  SimLink link(sim, 12e6, SimTime(0), std::make_unique<DropTailQueue>(10),
               sink, 0);

  link.send(data(0));
  sim.run();  // drain completely
  ASSERT_EQ(sink.arrivals.size(), 1u);

  // A later send after idle must transmit with fresh timing, not stall.
  sim.schedule_at(SimTime::from_millis(100), [&] { link.send(data(1)); });
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[1].at, SimTime::from_millis(101));
}

TEST(SimLink, ConstructorContracts) {
  Simulator sim;
  Sink sink(sim);
  EXPECT_THROW(SimLink(sim, 0.0, SimTime(0), std::make_unique<DropTailQueue>(1),
                       sink, 0),
               ContractViolation);
  EXPECT_THROW(SimLink(sim, 1e6, SimTime(0), nullptr, sink, 0),
               ContractViolation);
  SimLink link(sim, 1e6, SimTime(0), std::make_unique<DropTailQueue>(1), sink,
               0);
  EXPECT_THROW(link.send(data(0, 0)), ContractViolation);
}

TEST(SimLink, ThrowingConstructorLeavesNoLine) {
  // A rejected link must not leave a delivery line whose handler is gone.
  Simulator sim;
  Sink sink(sim);
  EXPECT_THROW(SimLink(sim, 0.0, SimTime(0), std::make_unique<DropTailQueue>(1),
                       sink, 0),
               ContractViolation);
  EXPECT_THROW(SimLink(sim, 1e6, SimTime(0), nullptr, sink, 0),
               ContractViolation);
  EXPECT_EQ(sim.add_line(sink, 0), 0u);
}

}  // namespace
}  // namespace axiomcc::sim
