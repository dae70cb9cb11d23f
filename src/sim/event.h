// event.h — the discrete-event simulation kernel.
//
// Events run in (time, sequence) order: time is the integral nanosecond
// clock, and the sequence number each event draws when it is scheduled
// breaks ties FIFO, so every run is exactly reproducible. Four kinds of
// event share that one key space and one binary heap:
//
//  - Packet events (schedule_packet_in) are plain data: the heap entry holds
//    a PacketHandler, a handler-defined port and the Packet by value. The
//    per-packet path allocates nothing and creates no std::function. A
//    link's tx-done event is one (a link has at most one in flight).
//  - Delay-line events (schedule_on_line) are packet events on a stream
//    with a constant delay — a link's deliveries, a flow's ACK returns — so
//    they arrive already in key order. A delay line is a FIFO of such
//    events; only its head sits in the heap, under its own key, and when
//    the head runs its successor replaces it at the heap top with one
//    sift-down. The heap holds O(lines) entries instead of one per packet in
//    flight. An event whose key is below its line's tail (the delay shrank
//    mid-run) becomes a plain heap entry instead, so every queued event's
//    key is at least its line head's and the global order is the one a
//    single heap would give. Lines live in grow-only ring buffers.
//  - Callbacks (schedule_at/schedule_in) are control events: sender timers,
//    flow start/stop, schedules installed by backends and tests. The
//    function lives in a reusable slot slab and the heap entry holds the
//    slot index; it is moved out of its slot before it runs, so a callback
//    may schedule further callbacks.
//  - A periodic series (schedule_every) is one heap entry that re-arms
//    itself after each occurrence. Registration reserves the sequence number
//    of every occurrence, so occurrence k has the key it would have had if
//    all occurrences had been scheduled up front.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/packet.h"
#include "util/check.h"
#include "util/units.h"

namespace axiomcc::sim {

using EventFn = std::function<void()>;

/// Receiver of typed packet events. `port` is the tag the event was
/// scheduled with; a handler with several event kinds tells them apart by it.
class PacketHandler {
 public:
  virtual void on_packet_event(int port, const Packet& packet) = 0;

 protected:
  ~PacketHandler() = default;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must not be in the past).
  void schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` after `delay` (must be non-negative).
  void schedule_in(SimTime delay, EventFn fn);

  /// Schedules `handler.on_packet_event(port, packet)` after `delay` (must be
  /// non-negative). The handler must outlive the event.
  void schedule_packet_in(SimTime delay, PacketHandler& handler, int port,
                          const Packet& packet) {
    AXIOMCC_EXPECTS_MSG(delay.ns() >= 0, "delay must be non-negative");
    push(Event{now_ + delay, next_sequence_++, &handler, port, kNoLine,
               packet});
  }

  using LineId = std::uint32_t;

  /// Opens a delay line whose events call `handler.on_packet_event(port,
  /// ...)`; the handler must outlive every event scheduled on it.
  LineId add_line(PacketHandler& handler, int port);

  /// Schedules a packet event on `line` after `delay` (must be
  /// non-negative). It runs exactly when schedule_packet_in with the line's
  /// handler and port would run it; the line only keeps it out of the heap
  /// while an earlier event of the line is pending.
  void schedule_on_line(LineId line, SimTime delay, const Packet& packet);

  /// Events the line's ring buffer can hold; it grows when full and never
  /// shrinks.
  [[nodiscard]] std::size_t line_capacity(LineId line) const;

  /// Schedules `fn` at `first`, `first + interval`, ... up to and including
  /// `last`; `first > last` schedules nothing. `interval` must be positive
  /// and `first` not in the past. Every occurrence's sequence number is
  /// reserved now, so events scheduled later at an occurrence's time run
  /// after it.
  void schedule_every(SimTime first, SimTime interval, SimTime last,
                      EventFn fn);

  /// Runs events until the queue is empty or `end` is reached; events at
  /// exactly `end` are executed. Returns the number of events processed.
  std::size_t run_until(SimTime end);

  /// Runs until the event queue is empty.
  std::size_t run();

  /// Asks the current run loop to stop after the event being executed
  /// returns; pending events (and series) stay queued. The next
  /// run()/run_until() call clears the flag and resumes normally. The hook
  /// backend step monitors use to end a guarded run early (divergence caught
  /// mid-simulation).
  void request_stop() { stop_requested_ = true; }

  /// True when request_stop() was called during the current/last run.
  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Total events executed over the simulator's lifetime; each occurrence
  /// of a periodic series counts as one event.
  [[nodiscard]] std::size_t events_processed() const {
    return events_processed_;
  }

  /// Scheduled events not yet run: heap entries plus the events queued
  /// behind delay-line heads. A periodic series with occurrences left counts
  /// once, however many occurrences remain.
  [[nodiscard]] std::size_t pending() const {
    return heap_.size() + line_queued_;
  }

 private:
  // Event::slot of a packet event that is not a delay-line head.
  static constexpr std::uint32_t kNoLine = 0xffffffffu;

  struct Event {
    SimTime time;
    std::uint64_t sequence;  // FIFO tie-break
    PacketHandler* handler;  // null: a callback or series in slots_[slot]
    int port;
    // Callback: its slots_ index. Packet event: the id of the line it heads,
    // or kNoLine.
    std::uint32_t slot;
    Packet packet;
  };
  // An event queued behind its line's head; handler and port are the line's.
  struct LineEvent {
    SimTime time;
    std::uint64_t sequence;
    Packet packet;
  };
  struct Line {
    PacketHandler* handler = nullptr;
    int port = 0;
    bool armed = false;  // its head is in the heap
    SimTime tail{0};     // time of the newest event on the line
    // Ring buffer of the events behind the head; its size is the capacity,
    // a power of two (or zero before the first queued event).
    std::vector<LineEvent> ring;
    std::size_t front = 0;
    std::size_t count = 0;
  };
  struct Slot {
    EventFn fn;
    SimTime interval{0};  // positive for a periodic series
    SimTime last{0};      // a series' final occurrence time
  };

  void push(const Event& event);
  void replace_top(const Event& event);
  Event pop();
  static void grow(Line& line);
  std::uint32_t acquire_slot(EventFn fn, SimTime interval, SimTime last);
  void dispatch(const Event& event);
  std::size_t drain(SimTime end);

  SimTime now_{0};
  std::uint64_t next_sequence_ = 0;
  std::size_t events_processed_ = 0;
  bool stop_requested_ = false;
  std::vector<Event> heap_;  // binary min-heap on (time, sequence)
  std::vector<Line> lines_;
  std::size_t line_queued_ = 0;  // events behind line heads
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace axiomcc::sim
