// dumbbell.h — the paper's experimental topology: n flows over one bottleneck.
//
// This is the packet-level replacement for the paper's Emulab setup
// (Section 5.1): senders on the left, receivers on the right, a single
// droptail (or RED) bottleneck in the middle, symmetric propagation delay,
// and an optional Bernoulli loss channel on the forward path for
// non-congestion-loss experiments.
//
// DumbbellExperiment is a one-link sim::MultiHopNetwork with every flow
// routed over link 0; the run loop, trace sampling, step monitor and
// per-flow reports are the network's.
#pragma once

#include <memory>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "sim/network.h"
#include "sim/queue.h"

namespace axiomcc::sim {

struct DumbbellConfig {
  double bottleneck_mbps = 30.0;
  double rtt_ms = 42.0;            ///< total two-way propagation delay.
  std::size_t buffer_packets = 100;
  int mss_bytes = 1500;
  double duration_seconds = 60.0;
  /// Bernoulli loss applied to forward data packets (non-congestion loss).
  double random_loss_rate = 0.0;
  std::uint64_t seed = 42;
  /// Queue discipline: droptail (paper) or RED (extension).
  bool use_red = false;
  REDQueue::Params red{};
  /// Window-sampling cadence for the fluid::Trace view; 0 selects one RTT.
  double sample_interval_ms = 0.0;
  double tail_fraction = 0.5;
  /// Hard cwnd cap passed to every sender (see MultiHopNetwork::Config).
  double max_window_mss = 1e7;
};

/// Converts the fluid model's link parameters into a packet-level dumbbell
/// configuration. This is the ONE place where the MSS-denominated fluid units
/// (B in MSS/s, Θ one-way seconds, buffer in MSS) become packet-level units
/// (Mbps, two-way ms, whole packets); engine::PacketBackend applies it to
/// every link of a scenario, so both simulators agree about what a "link"
/// means.
[[nodiscard]] DumbbellConfig dumbbell_config_from_link(
    const fluid::LinkParams& link, int mss_bytes = 1500);

class DumbbellExperiment : public MultiHopNetwork {
 public:
  explicit DumbbellExperiment(const DumbbellConfig& config);

  /// Adds a flow over the bottleneck; returns its id. Must be called before
  /// run(). A non-negative `stop_seconds` removes the flow at that time
  /// (flow churn).
  int add_flow(std::unique_ptr<cc::Protocol> protocol,
               double start_seconds = 0.0, double initial_window = 2.0,
               double stop_seconds = -1.0);

  /// Delivered bits over capacity·duration (valid after run()).
  [[nodiscard]] double bottleneck_utilization() const {
    return max_link_utilization();
  }

  /// C = B·2Θ in MSS for this configuration.
  [[nodiscard]] double capacity_mss() const { return capacity_mss_; }

 private:
  double capacity_mss_;
};

}  // namespace axiomcc::sim
