// Unit tests for the discrete-event kernel: ordering, FIFO ties, run_until
// semantics, scheduling contracts, typed packet events and periodic series.
#include "sim/event.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"

namespace axiomcc::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(30), [&] { order.push_back(3); });
  sim.schedule_at(SimTime(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator sim;
  SimTime seen{0};
  sim.schedule_at(SimTime(100), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime(100));
  EXPECT_EQ(sim.now(), SimTime(100));
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 5) sim.schedule_in(SimTime(10), hop);
  };
  sim.schedule_in(SimTime(10), hop);
  sim.run();
  EXPECT_EQ(hops, 5);
  EXPECT_EQ(sim.now(), SimTime(50));
}

TEST(Simulator, RunUntilStopsAtDeadlineInclusive) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(SimTime(10), [&] { fired.push_back(10); });
  sim.schedule_at(SimTime(20), [&] { fired.push_back(20); });
  sim.schedule_at(SimTime(21), [&] { fired.push_back(21); });

  const std::size_t executed = sim.run_until(SimTime(20));
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), SimTime(20));
  EXPECT_EQ(sim.pending(), 1u);

  sim.run();
  EXPECT_EQ(fired.back(), 21);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(SimTime(500));
  EXPECT_EQ(sim.now(), SimTime(500));
}

TEST(Simulator, SchedulingInPastViolatesContract) {
  Simulator sim;
  sim.schedule_at(SimTime(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime(5), [] {}), ContractViolation);
  EXPECT_THROW(sim.schedule_in(SimTime(-1), [] {}), ContractViolation);
}

TEST(Simulator, NullCallbackViolatesContract) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(SimTime(1), EventFn{}), ContractViolation);
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(SimTime(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, RequestStopEndsTheLoopAndFreezesTime) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime(5), [&] { ++fired; });
  sim.schedule_at(SimTime(10), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(SimTime(20), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.stop_requested());
  EXPECT_EQ(sim.now(), SimTime(10));
}

TEST(Simulator, RunUntilHonorsRequestStop) {
  Simulator sim;
  sim.schedule_at(SimTime(3), [&] { sim.request_stop(); });
  sim.run_until(SimTime(100));
  // Stopped runs do not fast-forward now() to the horizon.
  EXPECT_EQ(sim.now(), SimTime(3));
  // A fresh run clears the flag and drains the remaining events.
  int late = 0;
  sim.schedule_at(SimTime(50), [&] { ++late; });
  sim.run();
  EXPECT_FALSE(sim.stop_requested());
  EXPECT_EQ(late, 1);
}

TEST(Simulator, ZeroDelaySelfSchedulingAtSameTimeRunsAfterSiblings) {
  // A zero-delay event scheduled from within an event at time T runs at T but
  // after already-queued time-T events (FIFO by insertion).
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime(10), [&] {
    order.push_back(1);
    sim.schedule_in(SimTime(0), [&] { order.push_back(3); });
  });
  sim.schedule_at(SimTime(10), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/// Records every packet event as (port, seq).
struct RecordingHandler final : PacketHandler {
  std::vector<std::pair<int, std::uint64_t>> seen;
  void on_packet_event(int port, const Packet& packet) override {
    seen.emplace_back(port, packet.seq);
  }
};

Packet packet_with_seq(std::uint64_t seq) {
  Packet p;
  p.seq = seq;
  return p;
}

TEST(Simulator, PacketEventsDeliverPortAndPayload) {
  Simulator sim;
  RecordingHandler handler;
  sim.schedule_packet_in(SimTime(20), handler, 1, packet_with_seq(7));
  sim.schedule_packet_in(SimTime(10), handler, 0, packet_with_seq(3));
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(handler.seen,
            (std::vector<std::pair<int, std::uint64_t>>{{0, 3}, {1, 7}}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.now(), SimTime(20));
  EXPECT_THROW(sim.schedule_packet_in(SimTime(-1), handler, 0, Packet{}),
               ContractViolation);
}

TEST(Simulator, PacketEventsAndCallbacksTieFifo) {
  // One sequence space: typed packet events and callbacks scheduled for the
  // same time run in the order they were scheduled, whatever their kind.
  Simulator sim;
  std::vector<int> order;
  struct Handler final : PacketHandler {
    std::vector<int>* order = nullptr;
    void on_packet_event(int port, const Packet&) override {
      order->push_back(port);
    }
  } handler;
  handler.order = &order;
  for (int i = 0; i < 8; i += 2) {
    sim.schedule_packet_in(SimTime(10), handler, i, Packet{});
    sim.schedule_in(SimTime(10), [&order, i] { order.push_back(i + 1); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, ScheduleEveryKeepsUpFrontKeys) {
  // A series must order exactly like its occurrences scheduled one by one at
  // registration: a same-time event scheduled before registration runs
  // before occurrence k, one scheduled after it (up front or mid-run) runs
  // after it.
  auto record = [](Simulator& sim, std::vector<std::string>& log,
                   std::string tag) {
    return [&sim, &log, tag = std::move(tag)] {
      log.push_back(tag + "@" + std::to_string(sim.now().ns()));
    };
  };
  auto scenario = [&](bool series) {
    Simulator sim;
    std::vector<std::string> log;
    sim.schedule_at(SimTime(20), record(sim, log, "before"));
    if (series) {
      sim.schedule_every(SimTime(10), SimTime(10), SimTime(30),
                         record(sim, log, "sample"));
    } else {
      for (int t = 10; t <= 30; t += 10) {
        sim.schedule_at(SimTime(t), record(sim, log, "sample"));
      }
    }
    sim.schedule_at(SimTime(20), record(sim, log, "after"));
    sim.schedule_at(SimTime(5), [&sim, &log, record] {
      sim.schedule_at(SimTime(30), record(sim, log, "midrun"));
    });
    sim.run();
    return std::make_pair(log, sim.events_processed());
  };
  const auto [series_log, series_events] = scenario(true);
  const auto [upfront_log, upfront_events] = scenario(false);
  EXPECT_EQ(series_log,
            (std::vector<std::string>{"sample@10", "before@20", "sample@20",
                                      "after@20", "sample@30", "midrun@30"}));
  EXPECT_EQ(series_log, upfront_log);
  EXPECT_EQ(series_events, upfront_events);
}

TEST(Simulator, ScheduleEveryLastIsInclusive) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  sim.schedule_every(SimTime(5), SimTime(5), SimTime(15),
                     [&] { fired.push_back(sim.now().ns()); });
  sim.schedule_every(SimTime(100), SimTime(7), SimTime(113),
                     [&] { fired.push_back(sim.now().ns()); });
  // first > last schedules nothing.
  sim.schedule_every(SimTime(30), SimTime(5), SimTime(29),
                     [&] { fired.push_back(-1); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{5, 10, 15, 100, 107}));
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ScheduleEveryContracts) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_every(SimTime(1), SimTime(0), SimTime(10), [] {}),
               ContractViolation);
  EXPECT_THROW(
      sim.schedule_every(SimTime(1), SimTime(-3), SimTime(10), [] {}),
      ContractViolation);
  EXPECT_THROW(sim.schedule_every(SimTime(1), SimTime(1), SimTime(10),
                                  EventFn{}),
               ContractViolation);
  sim.run_until(SimTime(50));
  EXPECT_THROW(sim.schedule_every(SimTime(40), SimTime(1), SimTime(60), [] {}),
               ContractViolation);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PendingCountsASeriesOnce) {
  Simulator sim;
  sim.schedule_every(SimTime(1), SimTime(1), SimTime(1000), [] {});
  sim.schedule_at(SimTime(3), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.run_until(SimTime(500));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 1001u);
}

TEST(Simulator, RequestStopLeavesASeriesPending) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  sim.schedule_every(SimTime(10), SimTime(10), SimTime(50), [&] {
    fired.push_back(sim.now().ns());
    if (sim.now() == SimTime(20)) sim.request_stop();
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(sim.now(), SimTime(50));
}

TEST(Simulator, CallbacksSchedulingCallbacksKeepPendingSlotsIntact) {
  // Callbacks that schedule many callbacks while they run grow (and
  // reallocate) the slot slab and reuse freed slots; neither may disturb a
  // pending callback's captured state or a series' state between
  // occurrences. Heap-owning captures make any corruption visible (and an
  // ASan build reports it).
  Simulator sim;
  std::vector<std::string> log;
  const std::string pad(64, 'x');
  for (int i = 0; i < 4; ++i) {
    sim.schedule_at(SimTime(100 + i), [&log, tag = pad + std::to_string(i)] {
      log.push_back(tag);
    });
  }
  sim.schedule_every(
      SimTime(1), SimTime(1), SimTime(5),
      [&sim, &log, pad, count = 0]() mutable {
        ++count;
        for (int j = 0; j < 50; ++j) {
          sim.schedule_in(SimTime(1), [&sim, &log, pad, j] {
            if (j == 0) {
              // A nested callback scheduling more: reuses freed slots.
              sim.schedule_in(SimTime(0), [&log, pad] { log.push_back(pad); });
            }
          });
        }
        log.push_back("series" + std::to_string(count));
      });
  sim.run();

  std::vector<std::string> series;
  std::vector<std::string> late;
  std::size_t nested = 0;
  for (const std::string& entry : log) {
    if (entry.starts_with("series")) {
      series.push_back(entry);
    } else if (entry == pad) {
      ++nested;
    } else {
      late.push_back(entry);
    }
  }
  EXPECT_EQ(series, (std::vector<std::string>{"series1", "series2", "series3",
                                              "series4", "series5"}));
  EXPECT_EQ(nested, 5u);
  EXPECT_EQ(late, (std::vector<std::string>{pad + "0", pad + "1", pad + "2",
                                            pad + "3"}));
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace axiomcc::sim
