// bbr_like.h — a BBR-flavoured model-based protocol (paper future work).
//
// Section 6 asks for the model to cover "recently proposed" pacing-based
// designs such as BBR. This is a window-model adaptation of BBR's core loop
// (Cardwell et al., 2016):
//
//   * estimate the bottleneck bandwidth as a windowed MAX of the observed
//     delivery rate  (window·(1−loss)/RTT),
//   * estimate the propagation RTT as a windowed MIN of observed RTTs,
//   * in STARTUP, double the window each step while the delivery rate keeps
//     growing ≥ kStartupGrowthThreshold per step,
//   * afterwards, pace the window around the estimated BDP with the gain
//     cycle {1.25, 0.75, 1, 1, 1, 1, 1, 1} (probe up, drain, cruise).
//
// Like real BBR it is NOT loss-based (it reacts to rates and delays, not to
// loss), which makes it robust to non-congestion loss (Metric VI) while
// keeping queues near-empty most of the cycle (Metric VIII).
//
// Each filter is a monotonic queue of (sample index, value): a new sample
// drops the queued samples it beats from the back, the one sample that
// left the window drops from the front, and the front is the estimate. A
// call is O(1) amortized, whatever the window lengths (11–26 ns against
// 120–190 ns for a rescan of the default 10 + 100 samples, perfbench's
// cc.scalar.bbr_ns_per_call on a 4-core x86-64 container), and the queue
// holds at most the samples seen so far. Ties keep the oldest sample, the
// one std::max_element/std::min_element would return over the window, so
// every estimate is bit-identical to a full rescan (tests/cc_bbr_test.cc
// checks that). A NaN sample has no place in such an order: next_window
// rejects a NaN RTT or delivery rate. The queue is a vector read from a
// head index and compacted when half of it is dead, not a std::deque: a
// deque version, which allocates and frees a block every 32 samples, cost
// about twice as much per call and made perfbench eval-fluid's op_s_tail
// (its bbr input) 10 % longer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"

namespace axiomcc::cc {

class BbrLike final : public Protocol {
 public:
  /// `bw_window`: steps over which the max-filter remembers delivery-rate
  /// samples. `rtt_window`: same for the min-RTT filter.
  explicit BbrLike(std::size_t bw_window = 10, std::size_t rtt_window = 100);

  double next_window(const Observation& obs) override;
  [[nodiscard]] bool loss_based() const override { return false; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Protocol> clone() const override;
  void reset() override;

  /// Current bottleneck-bandwidth estimate in MSS/s (0 before any sample).
  [[nodiscard]] double bandwidth_estimate() const { return bw_filter_.best(); }
  /// Current propagation-RTT estimate in seconds (0 before any sample).
  [[nodiscard]] double min_rtt_estimate() const { return rtt_filter_.best(); }
  [[nodiscard]] bool in_startup() const { return startup_; }

 private:
  /// The extreme of the last `length` samples; `Beats(a, b)` is true when
  /// `a` must replace `b` as the extreme (`>` for a max, `<` for a min).
  template <class Beats>
  class WindowedExtreme {
   public:
    explicit WindowedExtreme(std::size_t length) : length_(length) {}
    void push(double value);
    /// The extreme over the window, 0 before any sample.
    [[nodiscard]] double best() const {
      return head_ == queue_.size() ? 0.0 : queue_[head_].value;
    }
    [[nodiscard]] std::size_t length() const { return length_; }
    void clear();

   private:
    struct Sample {
      std::uint64_t index;
      double value;
    };
    std::size_t length_;
    std::uint64_t pushed_ = 0;  ///< samples pushed since the last clear()
    std::size_t head_ = 0;      ///< queue_[head_, size) is the live queue
    std::vector<Sample> queue_;
  };

  WindowedExtreme<std::greater<>> bw_filter_;  // max delivery rate, MSS/s
  WindowedExtreme<std::less<>> rtt_filter_;     // min RTT, seconds
  bool startup_ = true;
  double last_delivery_rate_ = 0.0;
  std::size_t cycle_index_ = 0;
};

}  // namespace axiomcc::cc
