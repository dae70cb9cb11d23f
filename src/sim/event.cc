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
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

// Replaces the heap top with `event`, whose key is not below the old top's,
// and sifts it down.
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

Simulator::Event Simulator::pop() {
  const Event event = heap_.front();
  if (event.handler != nullptr && event.slot != kNoLine) {
    Line& line = lines_[event.slot];
    if (line.count > 0) {
      // The line's next event takes the head's place under its own key.
      const LineEvent& next = line.ring[line.front];
      replace_top(Event{next.time, next.sequence, line.handler, line.port,
                        event.slot, next.packet});
      line.front = (line.front + 1) & (line.ring.size() - 1);
      --line.count;
      --line_queued_;
      return event;
    }
    line.armed = false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  return event;
}

Simulator::LineId Simulator::add_line(PacketHandler& handler, int port) {
  AXIOMCC_EXPECTS(lines_.size() < kNoLine);
  Line& line = lines_.emplace_back();
  line.handler = &handler;
  line.port = port;
  return static_cast<LineId>(lines_.size() - 1);
}

void Simulator::grow(Line& line) {
  const std::size_t capacity = line.ring.size();
  std::vector<LineEvent> ring(capacity == 0 ? 8 : 2 * capacity);
  for (std::size_t i = 0; i < line.count; ++i) {
    ring[i] = line.ring[(line.front + i) & (capacity - 1)];
  }
  line.ring = std::move(ring);
  line.front = 0;
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
    if (line.count == line.ring.size()) grow(line);
    line.ring[(line.front + line.count) & (line.ring.size() - 1)] =
        LineEvent{t, sequence, packet};
    ++line.count;
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
  return lines_[id].ring.size();
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
  // Move the function out first: it may schedule callbacks that grow (and
  // reallocate) the slab or reuse this very slot.
  Slot& slot = slots_[event.slot];
  EventFn fn = std::move(slot.fn);
  const SimTime next = event.time + slot.interval;
  const bool rearm = slot.interval.ns() > 0 && next <= slot.last;
  if (rearm) {
    // The next occurrence's sequence number was reserved at registration.
    push(Event{next, event.sequence + 1, nullptr, 0, event.slot, Packet{}});
  } else {
    free_slots_.push_back(event.slot);
  }
  fn();
  if (rearm) slots_[event.slot].fn = std::move(fn);
}

std::size_t Simulator::drain(SimTime end) {
  stop_requested_ = false;
  std::size_t executed = 0;
  while (!stop_requested_ && !heap_.empty() && heap_.front().time <= end) {
    const Event event = pop();
    now_ = event.time;
    ++events_processed_;
    ++executed;
    dispatch(event);
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
