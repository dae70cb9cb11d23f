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

Simulator::Event Simulator::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event event = heap_.back();
  heap_.pop_back();
  return event;
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
