#include "cc/bbr_like.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace axiomcc::cc {

namespace {
/// BBR's ProbeBW pacing-gain cycle.
constexpr double kGainCycle[] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
constexpr std::size_t kCycleLength = 8;
/// STARTUP exits when the delivery rate stops growing by at least this
/// factor per step.
constexpr double kStartupGrowthThreshold = 1.10;
constexpr double kStartupGain = 2.0;
/// Always keep a few segments in flight so estimation never stalls.
constexpr double kMinWindow = 4.0;
}  // namespace

template <class Beats>
void BbrLike::WindowedExtreme<Beats>::push(double value) {
  // Strictly beaten samples can never be the extreme again; an equal one
  // stays, so among ties the oldest is the extreme.
  while (queue_.size() > head_ && Beats{}(value, queue_.back().value)) {
    queue_.pop_back();
  }
  queue_.push_back({pushed_, value});
  ++pushed_;
  // Queued indices were all inside the window before this push, so at
  // most the front one has just left it.
  if (pushed_ - queue_[head_].index > length_) ++head_;
  // Compact once the dead prefix is as long as the live queue: O(1)
  // amortized, and the storage stays within twice the live queue.
  if (head_ >= queue_.size() - head_) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

template <class Beats>
void BbrLike::WindowedExtreme<Beats>::clear() {
  queue_.clear();
  head_ = 0;
  pushed_ = 0;
}

BbrLike::BbrLike(std::size_t bw_window, std::size_t rtt_window)
    : bw_filter_(bw_window), rtt_filter_(rtt_window) {
  AXIOMCC_EXPECTS(bw_window >= 1);
  AXIOMCC_EXPECTS(rtt_window >= 1);
}

double BbrLike::next_window(const Observation& obs) {
  AXIOMCC_EXPECTS_MSG(!std::isnan(obs.rtt_seconds), "BBR RTT sample is NaN");
  if (obs.rtt_seconds <= 0.0) {
    return std::max(obs.window * kStartupGain, kMinWindow);
  }

  const double delivery_rate =
      obs.window * (1.0 - obs.loss_rate) / obs.rtt_seconds;
  AXIOMCC_EXPECTS_MSG(!std::isnan(delivery_rate),
                      "BBR delivery-rate sample is NaN");
  bw_filter_.push(delivery_rate);
  rtt_filter_.push(obs.rtt_seconds);

  if (startup_) {
    const bool still_growing =
        last_delivery_rate_ <= 0.0 ||
        delivery_rate >= last_delivery_rate_ * kStartupGrowthThreshold;
    last_delivery_rate_ = delivery_rate;
    if (still_growing) {
      return std::max(obs.window * kStartupGain, kMinWindow);
    }
    startup_ = false;  // pipe filled: drain into ProbeBW
    cycle_index_ = 1;  // start at the 0.75 drain phase
  }

  const double gain = kGainCycle[cycle_index_ % kCycleLength];
  cycle_index_ = (cycle_index_ + 1) % kCycleLength;

  const double bdp = bandwidth_estimate() * min_rtt_estimate();
  return std::max(gain * bdp, kMinWindow);
}

std::string BbrLike::name() const {
  std::ostringstream os;
  os << "BBR-like(bw_win=" << bw_filter_.length()
     << ",rtt_win=" << rtt_filter_.length() << ")";
  return os.str();
}

std::unique_ptr<Protocol> BbrLike::clone() const {
  return std::make_unique<BbrLike>(bw_filter_.length(),
                                   rtt_filter_.length());
}

void BbrLike::reset() {
  bw_filter_.clear();
  rtt_filter_.clear();
  startup_ = true;
  last_delivery_rate_ = 0.0;
  cycle_index_ = 0;
}

}  // namespace axiomcc::cc
