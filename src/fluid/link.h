// link.h — the paper's single-bottleneck fluid link (Section 2, Eq. 1).
//
// A link is parameterized by bandwidth B (MSS/s), propagation delay Θ, and
// buffer size τ (MSS). Its capacity is C = B·2Θ, the minimum bandwidth-delay
// product. Given the aggregate congestion window X(t), the link determines
// the step's RTT and the (synchronized) droptail loss rate:
//
//   RTT(X) = max(2Θ, (X−C)/B + 2Θ)     if X < C+τ
//          = Δ                          otherwise (timeout cap)
//   L(X)   = 1 − (C+τ)/X                if X > C+τ
//          = 0                          otherwise
#pragma once

#include <algorithm>

#include "util/check.h"
#include "util/units.h"

namespace axiomcc::fluid {

/// Static parameters of the bottleneck link.
struct LinkParams {
  Bandwidth bandwidth;           ///< B, in MSS/s.
  Seconds propagation_delay;     ///< Θ (one-way), in seconds.
  double buffer_mss = 0.0;       ///< τ, in MSS.
  /// Δ: the timeout-triggered RTT cap used when the buffer overflows.
  /// A non-positive value selects the natural default 2Θ + τ/B (the RTT of a
  /// full buffer).
  Seconds timeout_rtt = Seconds(0.0);
};

/// The fluid bottleneck link: pure functions of the aggregate window.
class FluidLink {
 public:
  explicit FluidLink(const LinkParams& params);

  /// C = B·2Θ, in MSS.
  [[nodiscard]] double capacity_mss() const { return capacity_mss_; }

  /// τ, in MSS.
  [[nodiscard]] double buffer_mss() const { return params_.buffer_mss; }

  /// C + τ: the aggregate window beyond which droptail loss begins.
  [[nodiscard]] double loss_threshold_mss() const {
    return capacity_mss_ + params_.buffer_mss;
  }

  /// The minimum possible RTT, 2Θ.
  [[nodiscard]] Seconds min_rtt() const {
    return params_.propagation_delay * 2.0;
  }

  /// Eq. 1: the RTT when the aggregate window is `total_window_mss`.
  /// Inline, like loss_rate: the fluid loops call both once per step.
  [[nodiscard]] Seconds rtt(double total_window_mss) const {
    AXIOMCC_EXPECTS(total_window_mss >= 0.0);
    if (total_window_mss >= loss_threshold_mss()) {
      return timeout_rtt_;  // Δ: timeout-triggered cap on the RTT under loss.
    }
    // No queue: max(2Θ, 2Θ + q) is 2Θ for q <= 0, so skip the division.
    if (total_window_mss <= capacity_mss_) return min_rtt();
    const double queueing_delay =
        (total_window_mss - capacity_mss_) / params_.bandwidth.mss_per_sec();
    const double base = min_rtt().value();
    return Seconds(std::max(base, base + queueing_delay));
  }

  /// The droptail loss rate when the aggregate window is `total_window_mss`.
  [[nodiscard]] double loss_rate(double total_window_mss) const {
    AXIOMCC_EXPECTS(total_window_mss >= 0.0);
    const double threshold = loss_threshold_mss();
    if (total_window_mss <= threshold) return 0.0;
    return 1.0 - threshold / total_window_mss;
  }

  [[nodiscard]] const LinkParams& params() const { return params_; }

 private:
  LinkParams params_;
  double capacity_mss_;
  Seconds timeout_rtt_;
};

/// Convenience constructor for the paper's experimental setups: bandwidth in
/// Mbps, a full round-trip propagation delay in milliseconds, buffer in MSS.
[[nodiscard]] LinkParams make_link_mbps(double mbps, double rtt_ms,
                                        double buffer_mss);

}  // namespace axiomcc::fluid
