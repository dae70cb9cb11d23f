// ring.h — the FIFO behind delay lines and link queues.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace axiomcc::sim {

/// A FIFO in a power-of-two ring that doubles when full and never shrinks,
/// so a FIFO that drains and refills to the same depth allocates nothing.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// Elements the ring holds before it grows.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// The oldest element; the ring must not be empty.
  [[nodiscard]] const T& front() const { return slots_[front_]; }

  void push_back(const T& value) {
    if (count_ == slots_.size()) grow();
    slots_[(front_ + count_) & (slots_.size() - 1)] = value;
    ++count_;
  }

  /// Drops the oldest element; the ring must not be empty.
  void pop_front() {
    front_ = (front_ + 1) & (slots_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    std::vector<T> slots(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < count_; ++i) {
      slots[i] = slots_[(front_ + i) & (slots_.size() - 1)];
    }
    slots_ = std::move(slots);
    front_ = 0;
  }

  std::vector<T> slots_;  // size zero or a power of two
  std::size_t front_ = 0;
  std::size_t count_ = 0;
};

}  // namespace axiomcc::sim
