// Unit tests for the queue disciplines: droptail semantics exactly, RED
// statistically, and the FIFO ring buffer both share against a reference
// deque.
#include "sim/queue.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::sim {
namespace {

Packet data(std::uint64_t seq, int bytes = 1500) {
  Packet p;
  p.seq = seq;
  p.size_bytes = bytes;
  return p;
}

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(q.enqueue(data(i)));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto p = q.dequeue();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsExactlyBeyondCapacity) {
  DropTailQueue q(2);
  EXPECT_TRUE(q.enqueue(data(0)));
  EXPECT_TRUE(q.enqueue(data(1)));
  EXPECT_FALSE(q.enqueue(data(2)));
  EXPECT_EQ(q.drops(), 1u);
  EXPECT_EQ(q.size_packets(), 2u);

  // Freeing a slot re-admits.
  (void)q.dequeue();
  EXPECT_TRUE(q.enqueue(data(3)));
}

TEST(DropTailQueue, TracksBytes) {
  DropTailQueue q(10);
  (void)q.enqueue(data(0, 1500));
  (void)q.enqueue(data(1, 40));
  EXPECT_EQ(q.size_bytes(), 1540u);
  (void)q.dequeue();
  EXPECT_EQ(q.size_bytes(), 40u);
}

TEST(DropTailQueue, ZeroCapacityViolatesContract) {
  EXPECT_THROW(DropTailQueue{0}, ContractViolation);
}

TEST(DropTailQueue, Name) { EXPECT_EQ(DropTailQueue(1).name(), "droptail"); }

REDQueue::Params red_params() {
  REDQueue::Params p;
  p.capacity_packets = 100;
  p.min_threshold = 10.0;
  p.max_threshold = 50.0;
  p.max_drop_probability = 0.2;
  p.queue_weight = 0.5;  // fast-moving average for testability
  p.seed = 3;
  return p;
}

TEST(REDQueue, NoDropsBelowMinThreshold) {
  REDQueue q(red_params());
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_TRUE(q.enqueue(data(i)));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(REDQueue, ProbabilisticDropsBetweenThresholds) {
  REDQueue q(red_params());
  std::size_t admitted = 0;
  // Hold occupancy between the thresholds by not dequeuing: the EWMA climbs
  // past min_threshold and RED begins dropping a fraction.
  for (std::uint64_t i = 0; i < 60; ++i) {
    if (q.enqueue(data(i))) ++admitted;
  }
  EXPECT_GT(q.drops(), 0u);
  EXPECT_LT(q.drops(), 60u);
  EXPECT_EQ(admitted + q.drops(), 60u);
}

TEST(REDQueue, HardDropsAboveMaxThreshold) {
  REDQueue q(red_params());
  // Fill far beyond max_threshold; once the EWMA crosses it, every arrival
  // is dropped.
  for (std::uint64_t i = 0; i < 200; ++i) (void)q.enqueue(data(i));
  const std::size_t drops_so_far = q.drops();
  EXPECT_FALSE(q.enqueue(data(999)));
  EXPECT_EQ(q.drops(), drops_so_far + 1);
}

TEST(REDQueue, AverageTracksOccupancy) {
  REDQueue q(red_params());
  EXPECT_DOUBLE_EQ(q.average_queue(), 0.0);
  for (std::uint64_t i = 0; i < 8; ++i) (void)q.enqueue(data(i));
  EXPECT_GT(q.average_queue(), 1.0);
}

TEST(REDQueue, DeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    REDQueue::Params p = red_params();
    p.seed = seed;
    REDQueue q(p);
    std::vector<bool> outcomes;
    for (std::uint64_t i = 0; i < 100; ++i) outcomes.push_back(q.enqueue(data(i)));
    return outcomes;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(REDQueue, ParameterContracts) {
  REDQueue::Params p = red_params();
  p.max_threshold = p.min_threshold;
  EXPECT_THROW(REDQueue{p}, ContractViolation);

  REDQueue::Params q = red_params();
  q.max_drop_probability = 0.0;
  EXPECT_THROW(REDQueue{q}, ContractViolation);

  REDQueue::Params r = red_params();
  r.queue_weight = 0.0;
  EXPECT_THROW(REDQueue{r}, ContractViolation);
}

// RED whose thresholds are never reached: it drops only at capacity.
REDQueue::Params overflow_only_red(std::size_t capacity) {
  REDQueue::Params p = red_params();
  p.capacity_packets = capacity;
  p.min_threshold = 1e6;
  p.max_threshold = 2e6;
  return p;
}

std::vector<std::unique_ptr<QueueDiscipline>> both_disciplines(
    std::size_t capacity) {
  std::vector<std::unique_ptr<QueueDiscipline>> queues;
  queues.push_back(std::make_unique<DropTailQueue>(capacity));
  queues.push_back(
      std::make_unique<REDQueue>(overflow_only_red(capacity)));
  return queues;
}

TEST(QueueDiscipline, FifoAndSizesMatchADequeAcrossWrapAndGrowth) {
  // Seeded bursts of arrivals and departures swing the occupancy between
  // empty and a few hundred packets, so the ring wraps at every capacity it
  // grows through. Every departure, and both sizes after every operation,
  // must match a reference deque.
  for (const auto& queue : both_disciplines(1000)) {
    QueueDiscipline& q = *queue;
    SCOPED_TRACE(q.name());
    Rng rng(11);
    std::deque<Packet> reference;
    std::size_t reference_bytes = 0;
    std::uint64_t next_seq = 0;
    std::size_t peak = 0;
    for (int burst = 0; burst < 400; ++burst) {
      const bool arrivals = reference.empty() ||
                            rng.bernoulli(reference.size() < 300 ? 0.6 : 0.3);
      const auto length = 1 + rng.uniform_index(40);
      for (std::uint64_t i = 0; i < length; ++i) {
        if (arrivals) {
          const Packet p =
              data(next_seq++, 40 + static_cast<int>(rng.uniform_index(1461)));
          ASSERT_TRUE(q.enqueue(p));
          reference.push_back(p);
          reference_bytes += static_cast<std::size_t>(p.size_bytes);
        } else if (!reference.empty()) {
          const auto p = q.dequeue();
          ASSERT_TRUE(p.has_value());
          EXPECT_EQ(p->seq, reference.front().seq);
          EXPECT_EQ(p->size_bytes, reference.front().size_bytes);
          reference_bytes -= static_cast<std::size_t>(p->size_bytes);
          reference.pop_front();
        }
        ASSERT_EQ(q.size_packets(), reference.size());
        ASSERT_EQ(q.size_bytes(), reference_bytes);
      }
      peak = std::max(peak, reference.size());
    }
    EXPECT_GT(peak, 100u);
    EXPECT_GE(q.ring_capacity(), peak);
    while (!reference.empty()) {
      const auto p = q.dequeue();
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->seq, reference.front().seq);
      reference.pop_front();
    }
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.size_bytes(), 0u);
    EXPECT_EQ(q.drops(), 0u);
  }
}

TEST(QueueDiscipline, RefillingToTheSameDepthDoesNotGrowTheRing) {
  for (const auto& queue : both_disciplines(1000)) {
    QueueDiscipline& q = *queue;
    SCOPED_TRACE(q.name());
    std::uint64_t seq = 0;
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(q.enqueue(data(seq++)));
    const std::size_t capacity = q.ring_capacity();
    // Keep 30 queued and cycle: the front wanders around the ring.
    for (int i = 0; i < 20; ++i) (void)q.dequeue();
    for (int cycle = 0; cycle < 500; ++cycle) {
      ASSERT_TRUE(q.enqueue(data(seq++)));
      const auto p = q.dequeue();
      ASSERT_TRUE(p.has_value());
      ASSERT_EQ(p->seq, seq - 31);
    }
    EXPECT_EQ(q.ring_capacity(), capacity);
  }
}

TEST(QueueDiscipline, BothCountDropsAtCapacityAfterTheRingWraps) {
  for (const auto& queue : both_disciplines(20)) {
    QueueDiscipline& q = *queue;
    SCOPED_TRACE(q.name());
    std::uint64_t seq = 0;
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(q.enqueue(data(seq++)));
    EXPECT_FALSE(q.enqueue(data(999)));
    for (int i = 0; i < 7; ++i) (void)q.dequeue();
    // Refill past the ring's end, then overflow by five.
    for (int i = 0; i < 7; ++i) ASSERT_TRUE(q.enqueue(data(seq++)));
    for (int i = 0; i < 5; ++i) EXPECT_FALSE(q.enqueue(data(999)));
    EXPECT_EQ(q.drops(), 6u);
    EXPECT_EQ(q.size_packets(), 20u);
    EXPECT_EQ(q.size_bytes(), 20u * 1500u);
    for (std::uint64_t expected = 7; expected < seq; ++expected) {
      const auto p = q.dequeue();
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->seq, expected);
    }
    EXPECT_EQ(q.size_packets(), 0u);
  }
}

}  // namespace
}  // namespace axiomcc::sim
