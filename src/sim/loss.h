// loss.h — per-packet non-congestion loss for the packet simulator.
//
// The fluid model injects loss as a rate (fluid/loss_model.h); here loss is a
// per-packet Bernoulli (or Gilbert-Elliott) coin flip, which is the behaviour
// the paper's Metric VI abstracts. MultiHopNetwork applies its forward
// PacketFilter to each data packet leaving the last link of its route.
#pragma once

#include <cstddef>

#include "sim/packet.h"
#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::sim {

/// Decides packet-by-packet whether to drop.
class PacketFilter {
 public:
  virtual ~PacketFilter() = default;
  /// True when the packet should be DROPPED.
  [[nodiscard]] virtual bool drop(const Packet& p) = 0;

  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 protected:
  void count_drop() { ++dropped_; }

 private:
  std::size_t dropped_ = 0;
};

/// Independent per-packet drops with probability `rate`.
class BernoulliPacketLoss final : public PacketFilter {
 public:
  BernoulliPacketLoss(double rate, std::uint64_t seed)
      : rate_(rate), rng_(seed) {
    AXIOMCC_EXPECTS(rate >= 0.0 && rate < 1.0);
  }

  bool drop(const Packet& /*p*/) override {
    if (rate_ > 0.0 && rng_.bernoulli(rate_)) {
      count_drop();
      return true;
    }
    return false;
  }

 private:
  double rate_;
  Rng rng_;
};

/// Two-state bursty loss channel (good/bad states with geometric dwell).
class GilbertElliottPacketLoss final : public PacketFilter {
 public:
  GilbertElliottPacketLoss(double p_good_to_bad, double p_bad_to_good,
                           double good_loss, double bad_loss,
                           std::uint64_t seed)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        good_loss_(good_loss),
        bad_loss_(bad_loss),
        rng_(seed) {
    AXIOMCC_EXPECTS(p_good_to_bad >= 0.0 && p_good_to_bad <= 1.0);
    AXIOMCC_EXPECTS(p_bad_to_good >= 0.0 && p_bad_to_good <= 1.0);
    AXIOMCC_EXPECTS(good_loss >= 0.0 && good_loss < 1.0);
    AXIOMCC_EXPECTS(bad_loss >= 0.0 && bad_loss < 1.0);
  }

  bool drop(const Packet& /*p*/) override {
    if (bad_state_) {
      if (rng_.bernoulli(p_bg_)) bad_state_ = false;
    } else {
      if (rng_.bernoulli(p_gb_)) bad_state_ = true;
    }
    const double rate = bad_state_ ? bad_loss_ : good_loss_;
    if (rate > 0.0 && rng_.bernoulli(rate)) {
      count_drop();
      return true;
    }
    return false;
  }

 private:
  double p_gb_;
  double p_bg_;
  double good_loss_;
  double bad_loss_;
  Rng rng_;
  bool bad_state_ = false;
};

}  // namespace axiomcc::sim
