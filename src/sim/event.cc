#include "sim/event.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace axiomcc::sim {
namespace {

// std::*_heap build a max-heap; ordering by "later" puts the earliest
// (time, sequence) key on top.
struct Later {
  template <typename Event>
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }
};

}  // namespace

void Simulator::push(const Event& event) {
  if (top_vacant_) {
    // The running event's slot is free: fill it with one sift-down.
    top_vacant_ = false;
    replace_top(event);
    return;
  }
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

// Puts `event` at the heap top in place of the entry there and sifts it
// down.
void Simulator::replace_top(const Event& event) {
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Later{}(heap_[child], heap_[child + 1])) ++child;
    if (!Later{}(event, heap_[child])) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = event;
}

// The top entry is about to run: a line head's successor takes its place at
// once; any other entry's slot stays vacant for the first push while it runs.
void Simulator::release_top(const Event& event) {
  if (event.handler != nullptr && event.slot != kNoLine) {
    Line& line = lines_[event.slot];
    if (!line.queue.empty()) {
      const LineEvent& next = line.queue.front();
      replace_top(Event{next.time, next.sequence, line.handler, line.port,
                        event.slot, next.packet});
      line.queue.pop_front();
      --line_queued_;
      return;
    }
    line.armed = false;
  }
  top_vacant_ = true;
}

// Nothing took the vacant top: the last entry moves into it.
void Simulator::close_top() {
  top_vacant_ = false;
  const Event last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) replace_top(last);
}

Simulator::LineId Simulator::add_line(PacketHandler& handler, int port) {
  AXIOMCC_EXPECTS(lines_.size() < kNoLine);
  Line& line = lines_.emplace_back();
  line.handler = &handler;
  line.port = port;
  return static_cast<LineId>(lines_.size() - 1);
}

void Simulator::schedule_on_line(LineId id, SimTime delay,
                                 const Packet& packet) {
  AXIOMCC_EXPECTS_MSG(delay.ns() >= 0, "delay must be non-negative");
  AXIOMCC_EXPECTS(id < lines_.size());
  Line& line = lines_[id];
  const SimTime t = now_ + delay;
  const std::uint64_t sequence = next_sequence_++;
  if (!line.armed) {
    line.armed = true;
    line.tail = t;
    push(Event{t, sequence, line.handler, line.port, id, packet});
  } else if (t >= line.tail) {
    // Later sequence, time not below the tail: the key ascends.
    line.queue.push_back(LineEvent{t, sequence, packet});
    ++line_queued_;
    line.tail = t;
  } else {
    // The delay shrank: this event overtakes queued ones, so it bypasses
    // the line as a plain heap entry.
    push(Event{t, sequence, line.handler, line.port, kNoLine, packet});
  }
}

std::size_t Simulator::line_capacity(LineId id) const {
  AXIOMCC_EXPECTS(id < lines_.size());
  return lines_[id].queue.capacity();
}

std::uint32_t Simulator::acquire_slot(EventFn fn, SimTime interval,
                                      SimTime last) {
  AXIOMCC_EXPECTS(fn != nullptr);
  if (free_slots_.empty()) {
    slots_.push_back(Slot{std::move(fn), interval, last});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = Slot{std::move(fn), interval, last};
  return slot;
}

void Simulator::schedule_at(SimTime t, EventFn fn) {
  AXIOMCC_EXPECTS_MSG(t >= now_, "cannot schedule an event in the past");
  const std::uint32_t slot =
      acquire_slot(std::move(fn), SimTime(0), SimTime(0));
  push(Event{t, next_sequence_++, nullptr, 0, slot, Packet{}});
}

void Simulator::schedule_in(SimTime delay, EventFn fn) {
  AXIOMCC_EXPECTS_MSG(delay.ns() >= 0, "delay must be non-negative");
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::schedule_every(SimTime first, SimTime interval, SimTime last,
                               EventFn fn) {
  AXIOMCC_EXPECTS_MSG(interval.ns() > 0, "interval must be positive");
  AXIOMCC_EXPECTS_MSG(first >= now_, "cannot schedule an event in the past");
  AXIOMCC_EXPECTS(fn != nullptr);
  if (first > last) return;
  const auto occurrences =
      static_cast<std::uint64_t>((last - first).ns() / interval.ns()) + 1;
  const std::uint64_t sequence = next_sequence_;
  next_sequence_ += occurrences;
  const std::uint32_t slot = acquire_slot(std::move(fn), interval, last);
  push(Event{first, sequence, nullptr, 0, slot, Packet{}});
}

void Simulator::dispatch(const Event& event) {
  if (event.handler != nullptr) {
    event.handler->on_packet_event(event.port, event.packet);
    return;
  }
  Slot& slot = slots_[event.slot];  // a deque: growing it moves no slot
  const SimTime next = event.time + slot.interval;
  if (slot.interval.ns() > 0 && next <= slot.last) {
    // The next occurrence's sequence number was reserved at registration.
    push(Event{next, event.sequence + 1, nullptr, 0, event.slot, Packet{}});
    slot.fn();
    return;
  }
  // Move the function out first: a callback it schedules may reuse the slot.
  EventFn fn = std::move(slot.fn);
  free_slots_.push_back(event.slot);
  fn();
}

std::size_t Simulator::drain(SimTime end) {
  AXIOMCC_EXPECTS_MSG(!top_vacant_, "run() called from inside an event");
  stop_requested_ = false;
  std::size_t executed = 0;
  while (!stop_requested_ && !heap_.empty() && heap_.front().time <= end) {
    const Event event = heap_.front();
    release_top(event);
    now_ = event.time;
    ++events_processed_;
    ++executed;
    try {
      dispatch(event);
    } catch (...) {
      // The stale entry must not run again on the next run().
      if (top_vacant_) close_top();
      throw;
    }
    if (top_vacant_) close_top();
  }
  return executed;
}

std::size_t Simulator::run_until(SimTime end) {
  const std::size_t executed = drain(end);
  if (!stop_requested_ && now_ < end) now_ = end;
  return executed;
}

std::size_t Simulator::run() {
  return drain(SimTime(std::numeric_limits<std::int64_t>::max()));
}

}  // namespace axiomcc::sim
