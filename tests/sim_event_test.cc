// Unit tests for the discrete-event kernel: ordering, FIFO ties, run_until
// semantics, scheduling contracts, typed packet events, delay lines and
// periodic series, and a seeded differential test against a reference
// ordered set.
#include "sim/event.h"

#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

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

TEST(Simulator, LineEventsAndCallbacksTieFifo) {
  // Events on two lines, plain packet events and callbacks scheduled for the
  // same time run in the order they were scheduled.
  Simulator sim;
  std::vector<int> order;
  struct Handler final : PacketHandler {
    std::vector<int>* order = nullptr;
    void on_packet_event(int /*port*/, const Packet& packet) override {
      order->push_back(static_cast<int>(packet.seq));
    }
  } handler;
  handler.order = &order;
  const Simulator::LineId a = sim.add_line(handler, 0);
  const Simulator::LineId b = sim.add_line(handler, 1);
  for (int i = 0; i < 12; i += 4) {
    sim.schedule_on_line(a, SimTime(10), packet_with_seq(i));
    sim.schedule_in(SimTime(10), [&order, i] { order.push_back(i + 1); });
    sim.schedule_on_line(b, SimTime(10), packet_with_seq(i + 2));
    sim.schedule_packet_in(SimTime(10), handler, 2, packet_with_seq(i + 3));
  }
  sim.run();
  EXPECT_EQ(order,
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(Simulator, LineKeepsKeyOrderWhenTheDelayShrinks) {
  // A line event whose key is below the line's tail (its delay shrank while
  // earlier events were queued) must still run in (time, sequence) order —
  // the order plain packet events would give.
  const std::vector<std::pair<std::int64_t, std::int64_t>> sends = {
      {10, 100}, {20, 100}, {30, 40}, {40, 80}, {50, 10}, {60, 70}};
  auto scenario = [&](bool on_line) {
    Simulator sim;
    RecordingHandler handler;
    const Simulator::LineId line = sim.add_line(handler, 0);
    std::uint64_t seq = 0;
    for (const auto& [at, delay] : sends) {
      sim.schedule_at(SimTime(at), [&sim, &handler, line, on_line, delay,
                                    packet = packet_with_seq(++seq)] {
        if (on_line) {
          sim.schedule_on_line(line, SimTime(delay), packet);
        } else {
          sim.schedule_packet_in(SimTime(delay), handler, 0, packet);
        }
      });
    }
    // Five packets in flight and the last send.
    sim.run_until(SimTime(59));
    EXPECT_EQ(sim.pending(), 6u);
    sim.run();
    EXPECT_EQ(sim.events_processed(), 12u);
    return handler.seen;
  };
  const auto line_order = scenario(true);
  // Times 60, 70, 110, 120, 120, 130; the two at 120 in scheduling order.
  EXPECT_EQ(line_order, (std::vector<std::pair<int, std::uint64_t>>{
                            {0, 5}, {0, 3}, {0, 1}, {0, 2}, {0, 4}, {0, 6}}));
  EXPECT_EQ(line_order, scenario(false));
}

TEST(Simulator, RequestStopMidLineLosesNothing) {
  Simulator sim;
  struct Handler final : PacketHandler {
    Simulator* sim = nullptr;
    std::vector<std::uint64_t> seen;
    void on_packet_event(int /*port*/, const Packet& packet) override {
      seen.push_back(packet.seq);
      if (packet.seq == 3) sim->request_stop();
    }
  } handler;
  handler.sim = &sim;
  const Simulator::LineId line = sim.add_line(handler, 0);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sim.schedule_on_line(line, SimTime(static_cast<std::int64_t>(10 * i)),
                         packet_with_seq(i));
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.now(), SimTime(30));
  EXPECT_EQ(sim.pending(), 7u);
  // Events scheduled while stopped join the line behind the queued ones.
  sim.schedule_on_line(line, SimTime(100), packet_with_seq(11));
  EXPECT_EQ(sim.run(), 8u);
  EXPECT_EQ(handler.seen, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8,
                                                      9, 10, 11}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, PendingCountsEventsQueuedBehindALineHead) {
  Simulator sim;
  RecordingHandler handler;
  const Simulator::LineId line = sim.add_line(handler, 0);
  EXPECT_EQ(sim.pending(), 0u);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    sim.schedule_on_line(line, SimTime(static_cast<std::int64_t>(i)),
                         packet_with_seq(i));
  }
  sim.schedule_at(SimTime(3), [] {});
  sim.schedule_every(SimTime(1), SimTime(1), SimTime(10), [] {});
  // Five line events (one head, four queued), a callback, one series.
  EXPECT_EQ(sim.pending(), 7u);
  sim.run_until(SimTime(3));
  // Line events 4 and 5 and the series remain.
  EXPECT_EQ(sim.pending(), 3u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(handler.seen.size(), 5u);
}

TEST(Simulator, LineStorageDoesNotGrowOnRefill) {
  // A line drained and refilled to the same depth reuses its ring buffer,
  // whose front wanders around it; growing a wrapped ring keeps the order.
  Simulator sim;
  RecordingHandler handler;
  const Simulator::LineId line = sim.add_line(handler, 0);
  EXPECT_EQ(sim.line_capacity(line), 0u);
  auto fill = [&](int depth) {
    handler.seen.clear();
    for (int i = 1; i <= depth; ++i) {
      sim.schedule_on_line(line, SimTime(i),
                           packet_with_seq(static_cast<std::uint64_t>(i)));
    }
    sim.run();
    ASSERT_EQ(handler.seen.size(), static_cast<std::size_t>(depth));
    for (int i = 1; i <= depth; ++i) {
      ASSERT_EQ(handler.seen[i - 1].second, static_cast<std::uint64_t>(i));
    }
  };
  fill(100);
  const std::size_t capacity = sim.line_capacity(line);
  // The head waits in the heap; the other 99 events need ring slots.
  EXPECT_GE(capacity, 99u);
  for (int cycle = 0; cycle < 1000; ++cycle) fill(1 + cycle % 37);
  EXPECT_EQ(sim.line_capacity(line), capacity);
  fill(3 * static_cast<int>(capacity));
  EXPECT_GT(sim.line_capacity(line), capacity);
  EXPECT_THROW(sim.schedule_on_line(line, SimTime(-1), Packet{}),
               ContractViolation);
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

// --- Differential test against a reference model ----------------------------

/// The scheduling calls the differential test makes; the kernel and a
/// reference model both implement them.
class Scheduler {
 public:
  [[nodiscard]] virtual SimTime now() const = 0;
  [[nodiscard]] virtual std::size_t pending() const = 0;
  virtual void callback(SimTime delay, std::uint64_t id) = 0;
  virtual void packet(SimTime delay, std::uint64_t id) = 0;
  virtual void line(int line, SimTime delay, std::uint64_t id) = 0;
  /// schedule_every from now + `first` to now + `last`.
  virtual void series(SimTime first, SimTime interval, SimTime last,
                      std::uint64_t id) = 0;
  virtual void stop() = 0;

 protected:
  ~Scheduler() = default;
};

/// A seeded random schedule. Every event logs its id, now() and pending()
/// when it runs and schedules 0-3 more from a shared random stream, so two
/// schedulers that dispatch in the same order see the same schedule and the
/// same log.
struct Script {
  static constexpr int kLines = 3;
  static constexpr std::uint64_t kBudget = 4000;

  Script(std::uint64_t seed, bool throwing) : rng(seed), throws(throwing) {}

  SimTime delay() {
    return SimTime(rng.bernoulli(0.2)
                       ? 0
                       : 1 + static_cast<std::int64_t>(rng.uniform_index(40)));
  }

  void spawn(Scheduler& s) {
    if (expected_runs.size() >= kBudget) return;
    const std::uint64_t id = expected_runs.size();
    expected_runs.push_back(1);
    const std::uint64_t kind = rng.uniform_index(10);
    if (kind < 3) {
      s.callback(delay(), id);
    } else if (kind < 5) {
      s.packet(delay(), id);
    } else if (kind < 9) {
      const auto l = static_cast<int>(rng.uniform_index(kLines));
      if (rng.bernoulli(0.1)) {
        // The line's delay grows or shrinks; a shrink overtakes its queue.
        const auto d = 1 + static_cast<std::int64_t>(rng.uniform_index(60));
        if (d < line_delay[l]) ++shrinks;
        line_delay[l] = d;
      }
      s.line(l, SimTime(line_delay[l]), id);
    } else {
      // Up to 6 occurrences; -1 (first > last) schedules none.
      const SimTime first = delay();
      const auto interval =
          1 + static_cast<std::int64_t>(rng.uniform_index(20));
      const auto count = static_cast<std::int64_t>(rng.uniform_index(7)) - 1;
      expected_runs[id] = static_cast<int>(count + 1);
      s.series(first, SimTime(interval),
               first + SimTime(count >= 0 ? interval * count : -1), id);
    }
  }

  void on_event(Scheduler& s, std::uint64_t id) {
    log.push_back({id, s.now().ns(), s.pending()});
    for (std::uint64_t n = rng.uniform_index(4); n > 0; --n) spawn(s);
    if (rng.bernoulli(0.01)) {
      ++stops;
      s.stop();
    }
    if (throws && rng.bernoulli(0.02)) {
      ++thrown;
      throw std::runtime_error("handler failed");
    }
  }

  Rng rng;
  bool throws;
  std::array<std::int64_t, kLines> line_delay{30, 30, 30};
  std::vector<int> expected_runs;  // by id
  struct Run {
    std::uint64_t id;
    std::int64_t now;
    std::size_t pending;  // while it runs, not counting itself
    bool operator==(const Run&) const = default;
  };
  std::vector<Run> log;
  int shrinks = 0;
  int stops = 0;
  int thrown = 0;
};

/// The kernel, driven through the Scheduler calls.
class KernelUnderTest final : public Scheduler, private PacketHandler {
 public:
  explicit KernelUnderTest(Script& script) : script_(script) {
    for (int l = 0; l < Script::kLines; ++l) {
      lines_[l] = sim_.add_line(*this, 1 + l);
    }
  }

  SimTime now() const override { return sim_.now(); }
  void callback(SimTime delay, std::uint64_t id) override {
    sim_.schedule_in(delay, [this, id] { script_.on_event(*this, id); });
  }
  void packet(SimTime delay, std::uint64_t id) override {
    sim_.schedule_packet_in(delay, *this, 0, packet_with_seq(id));
  }
  void line(int line, SimTime delay, std::uint64_t id) override {
    sim_.schedule_on_line(lines_[line], delay, packet_with_seq(id));
  }
  void series(SimTime first, SimTime interval, SimTime last,
              std::uint64_t id) override {
    sim_.schedule_every(sim_.now() + first, interval, sim_.now() + last,
                        [this, id] { script_.on_event(*this, id); });
  }
  void stop() override { sim_.request_stop(); }

  std::size_t run_until(SimTime end) { return sim_.run_until(end); }
  std::size_t events_processed() const { return sim_.events_processed(); }
  std::size_t pending() const override { return sim_.pending(); }

 private:
  void on_packet_event(int /*port*/, const Packet& packet) override {
    script_.on_event(*this, packet.seq);
  }

  Script& script_;
  Simulator sim_;
  std::array<Simulator::LineId, Script::kLines> lines_{};
};

/// The kernel's contract as an ordered map on (time, sequence): every
/// schedule draws the next sequence number (a series reserves one per
/// occurrence), and a series re-arms before its occurrence runs.
class ReferenceKernel final : public Scheduler {
 public:
  explicit ReferenceKernel(Script& script) : script_(script) {}

  SimTime now() const override { return now_; }
  void callback(SimTime delay, std::uint64_t id) override {
    queue_.emplace(Key{now_ + delay, next_sequence_++}, Entry{id});
  }
  void packet(SimTime delay, std::uint64_t id) override {
    callback(delay, id);
  }
  void line(int /*line*/, SimTime delay, std::uint64_t id) override {
    callback(delay, id);
  }
  void series(SimTime first, SimTime interval, SimTime last,
              std::uint64_t id) override {
    if (first > last) return;
    queue_.emplace(Key{now_ + first, next_sequence_},
                   Entry{id, interval, now_ + last});
    next_sequence_ +=
        static_cast<std::uint64_t>((last - first).ns() / interval.ns()) + 1;
  }
  void stop() override { stop_ = true; }

  std::size_t run_until(SimTime end) {
    stop_ = false;
    std::size_t executed = 0;
    while (!stop_ && !queue_.empty() && queue_.begin()->first.first <= end) {
      const auto [key, entry] = *queue_.begin();
      queue_.erase(queue_.begin());
      now_ = key.first;
      ++processed_;
      ++executed;
      const SimTime next = key.first + entry.interval;
      if (entry.interval.ns() > 0 && next <= entry.last) {
        queue_.emplace(Key{next, key.second + 1}, entry);
      }
      script_.on_event(*this, entry.id);
    }
    if (!stop_ && now_ < end) now_ = end;
    return executed;
  }
  std::size_t events_processed() const { return processed_; }
  std::size_t pending() const override { return queue_.size(); }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;
  struct Entry {
    std::uint64_t id;
    SimTime interval{0};
    SimTime last{0};
  };

  Script& script_;
  std::map<Key, Entry> queue_;
  SimTime now_{0};
  std::uint64_t next_sequence_ = 0;
  std::size_t processed_ = 0;
  bool stop_ = false;
};

/// Runs `kernel` to `end`; nullopt when a handler threw.
template <typename Kernel>
std::optional<std::size_t> run_to(Kernel& kernel, SimTime end) {
  try {
    return kernel.run_until(end);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// Drives the kernel and the reference through the same seeded schedule in
/// random run_until slices, comparing after every slice; returns the
/// kernel's script.
Script differential_run(std::uint64_t seed, bool throws) {
  Script script(seed, throws);
  Script reference_script(seed, throws);
  KernelUnderTest kernel(script);
  ReferenceKernel reference(reference_script);
  for (int i = 0; i < 20; ++i) {
    script.spawn(kernel);
    reference_script.spawn(reference);
  }
  Rng slices(seed + 1000);
  SimTime end(0);
  while (kernel.pending() > 0 || reference.pending() > 0) {
    end = end + SimTime(1 + static_cast<std::int64_t>(slices.uniform_index(60)));
    const auto ran = run_to(kernel, end);
    const auto reference_ran = run_to(reference, end);
    EXPECT_EQ(ran, reference_ran);
    EXPECT_EQ(kernel.now(), reference.now());
    EXPECT_EQ(kernel.events_processed(), reference.events_processed());
    EXPECT_EQ(kernel.pending(), reference.pending());
    EXPECT_EQ(script.log.size(), reference_script.log.size());
    if (testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(script.log, reference_script.log);
  return script;
}

/// Every event ran exactly as often as it was scheduled to: once, or once per
/// occurrence of a series.
void expect_each_event_ran_as_scheduled(const Script& script) {
  std::vector<int> runs(script.expected_runs.size(), 0);
  for (const Script::Run& run : script.log) ++runs[run.id];
  EXPECT_EQ(runs, script.expected_runs);
}

TEST(Simulator, MatchesAReferenceOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Script script = differential_run(seed, false);
    EXPECT_EQ(script.expected_runs.size(), Script::kBudget);
    EXPECT_GT(script.shrinks, 0);
    EXPECT_GT(script.stops, 0);
    expect_each_event_ran_as_scheduled(script);
  }
}

TEST(Simulator, AThrowingHandlerRunsOnceAndLosesNoEvent) {
  // A handler that throws leaves run_until() with the exception; the next
  // run_until() must neither run the throwing event again nor lose the rest.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Script script = differential_run(seed, true);
    EXPECT_GT(script.thrown, 0);
    expect_each_event_ran_as_scheduled(script);
  }
}

}  // namespace
}  // namespace axiomcc::sim
