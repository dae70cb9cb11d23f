#include "fluid/link.h"

namespace axiomcc::fluid {

FluidLink::FluidLink(const LinkParams& params)
    : params_(params),
      capacity_mss_(params.bandwidth.mss_over(params.propagation_delay * 2.0)) {
  AXIOMCC_EXPECTS_MSG(params.bandwidth.mss_per_sec() > 0.0,
                      "link bandwidth must be positive");
  AXIOMCC_EXPECTS_MSG(params.propagation_delay.value() > 0.0,
                      "propagation delay must be positive");
  AXIOMCC_EXPECTS_MSG(params.buffer_mss >= 0.0, "buffer size must be >= 0");

  if (params.timeout_rtt.value() > 0.0) {
    timeout_rtt_ = params.timeout_rtt;
  } else {
    // Natural default: the RTT of a full buffer, 2Θ + τ/B.
    timeout_rtt_ =
        min_rtt() + Seconds(params.buffer_mss / params.bandwidth.mss_per_sec());
  }
  AXIOMCC_ENSURES(timeout_rtt_ >= min_rtt());
}

LinkParams make_link_mbps(double mbps, double rtt_ms, double buffer_mss) {
  LinkParams p;
  p.bandwidth = Bandwidth::from_mbps(mbps);
  p.propagation_delay = Seconds::from_millis(rtt_ms / 2.0);
  p.buffer_mss = buffer_mss;
  return p;
}

}  // namespace axiomcc::fluid
