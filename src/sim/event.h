// event.h — the discrete-event simulation kernel.
//
// Events run in (time, sequence) order: time is the integral nanosecond
// clock, and the sequence number each event draws when it is scheduled
// breaks ties FIFO, so every run is exactly reproducible. Three kinds of
// event share that one key space and one binary heap:
//
//  - Packet events (schedule_packet_in) are plain data: the heap entry holds
//    a PacketHandler, a handler-defined port and the Packet by value. The
//    per-packet path — link tx-done, link delivery, ACK return — allocates
//    nothing and creates no std::function.
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
    push(Event{now_ + delay, next_sequence_++, &handler, port, 0, packet});
  }

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

  /// Heap entries currently pending. A periodic series with occurrences
  /// left counts as ONE entry, however many occurrences remain.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t sequence;  // FIFO tie-break
    PacketHandler* handler;  // null: a callback or series in slots_[slot]
    int port;
    std::uint32_t slot;
    Packet packet;
  };
  struct Slot {
    EventFn fn;
    SimTime interval{0};  // positive for a periodic series
    SimTime last{0};      // a series' final occurrence time
  };

  void push(const Event& event);
  Event pop();
  std::uint32_t acquire_slot(EventFn fn, SimTime interval, SimTime last);
  void dispatch(const Event& event);
  std::size_t drain(SimTime end);

  SimTime now_{0};
  std::uint64_t next_sequence_ = 0;
  std::size_t events_processed_ = 0;
  bool stop_requested_ = false;
  std::vector<Event> heap_;  // binary min-heap on (time, sequence)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace axiomcc::sim
