#include "sim/dumbbell.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/loss.h"
#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::sim {
namespace {

MultiHopNetwork::Config network_config(const DumbbellConfig& config) {
  AXIOMCC_EXPECTS(config.bottleneck_mbps > 0.0);
  AXIOMCC_EXPECTS(config.rtt_ms > 0.0);
  AXIOMCC_EXPECTS(config.buffer_packets > 0);
  AXIOMCC_EXPECTS(config.mss_bytes > 0);
  AXIOMCC_EXPECTS(config.duration_seconds > 0.0);
  AXIOMCC_EXPECTS(config.tail_fraction >= 0.0 && config.tail_fraction < 1.0);
  MultiHopNetwork::Config nc;
  nc.duration_seconds = config.duration_seconds;
  nc.mss_bytes = config.mss_bytes;
  nc.sample_interval_ms = config.sample_interval_ms;
  nc.tail_fraction = config.tail_fraction;
  nc.max_window_mss = config.max_window_mss;
  return nc;
}

}  // namespace

DumbbellConfig dumbbell_config_from_link(const fluid::LinkParams& link,
                                         int mss_bytes) {
  AXIOMCC_EXPECTS(mss_bytes > 0);
  DumbbellConfig dc;
  dc.mss_bytes = mss_bytes;
  // B (MSS/s) -> Mbps via the shared Bandwidth unit, so the round-trip
  // through make_link_mbps is exact.
  dc.bottleneck_mbps = link.bandwidth.mbps(mss_bytes);
  // Θ is one-way; the dumbbell's rtt_ms is the two-way propagation delay.
  dc.rtt_ms = (link.propagation_delay * 2.0).millis();
  // Buffer: MSS -> whole packets (1 MSS = 1 packet); never below 1 packet.
  dc.buffer_packets = static_cast<std::size_t>(
      std::max<long long>(1, std::llround(link.buffer_mss)));
  return dc;
}

DumbbellExperiment::DumbbellExperiment(const DumbbellConfig& config)
    : MultiHopNetwork(network_config(config)),
      capacity_mss_(config.bottleneck_mbps * 1e6 * (config.rtt_ms / 1e3) /
                    (8.0 * static_cast<double>(config.mss_bytes))) {
  std::unique_ptr<QueueDiscipline> queue;
  if (config.use_red) {
    REDQueue::Params red = config.red;
    red.capacity_packets = config.buffer_packets;
    queue = std::make_unique<REDQueue>(red);
  } else {
    queue = std::make_unique<DropTailQueue>(config.buffer_packets);
  }
  // Symmetric delay: the forward link and the ACK path each take RTT/2.
  add_link(config.bottleneck_mbps, config.rtt_ms / 2.0, std::move(queue));

  if (config.random_loss_rate != 0.0) {
    // Derive the loss channel's stream from the experiment seed so that
    // distinct seeds give independent loss processes.
    std::uint64_t s = config.seed;
    set_forward_filter(std::make_unique<BernoulliPacketLoss>(
        config.random_loss_rate, splitmix64_next(s)));
  }
}

int DumbbellExperiment::add_flow(std::unique_ptr<cc::Protocol> protocol,
                                 double start_seconds, double initial_window,
                                 double stop_seconds) {
  return MultiHopNetwork::add_flow(std::move(protocol), {0}, start_seconds,
                                   initial_window, stop_seconds);
}

}  // namespace axiomcc::sim
