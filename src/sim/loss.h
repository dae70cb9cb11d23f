// loss.h — per-packet non-congestion loss for the packet simulator.
//
// The fluid model injects loss as a rate (fluid/loss_model.h); here loss is a
// per-packet Bernoulli coin flip, which is the behaviour the paper's Metric VI
// abstracts. MultiHopNetwork applies its forward PacketFilter to each data
// packet leaving the last link of its route. Bursty (Gilbert-Elliott) loss
// reaches the packet backend as a fluid::LossSpec, sampled per step by the
// engine's filter (engine/packet_backend.cc).
#pragma once

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
};

/// Independent per-packet drops with probability `rate`.
class BernoulliPacketLoss final : public PacketFilter {
 public:
  BernoulliPacketLoss(double rate, std::uint64_t seed)
      : rate_(rate), rng_(seed) {
    AXIOMCC_EXPECTS(rate >= 0.0 && rate < 1.0);
  }

  bool drop(const Packet& /*p*/) override {
    return rate_ > 0.0 && rng_.bernoulli(rate_);
  }

 private:
  double rate_;
  Rng rng_;
};

}  // namespace axiomcc::sim
