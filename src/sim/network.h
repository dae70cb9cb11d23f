// network.h — the packet-level simulator's one substrate: flows routed over
// shared links.
//
// Packets are forwarded hop by hop through each link's queue. A sender hands
// each data packet to the network on port kRouteEntry, every link delivers
// to it on port kLinkExit + link_id, and the network forwards the packet to
// the next hop. After the last hop it acts as the receiver: it ACKs every
// packet, echoing its sequence number and send timestamp, and the ACK
// returns on the flow's ACK line (port kAckReturn) after the route's
// reverse propagation delay. The paper's dumbbell (Section 5.1) is the
// one-link case (sim/dumbbell.h builds it); longer routes are the
// packet-level counterpart of FluidSimulation's routed loop (fluid/sim.h;
// the paper's "network-wide interaction" future work), with the same
// parking-lot builder.
//
// The network carries the full engine-substrate hook set: flow churn
// (start/stop times), a forward-path packet filter for injected loss, a step
// monitor that can stop the run at a trace sample, per-flow tail reports, and
// mutable link access for mid-run rate/delay schedules. Every sender's window
// is sampled at a fixed cadence into a fluid::Trace, so the axiomatic metric
// estimators in src/core run unchanged on packet-level data.
// engine::PacketBackend runs every scenario here.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "fluid/trace.h"
#include "sim/event.h"
#include "sim/link.h"
#include "sim/loss.h"
#include "sim/queue.h"
#include "sim/sender.h"

namespace axiomcc::sim {

/// Tail-of-run summary for one flow.
struct FlowReport {
  std::string protocol_name;
  double avg_window_mss = 0.0;
  double throughput_mbps = 0.0;
  double loss_rate = 0.0;
  double avg_rtt_ms = 0.0;
};

class MultiHopNetwork : private PacketHandler {
 public:
  struct Config {
    double duration_seconds = 30.0;
    int mss_bytes = 1500;
    /// Window-sampling cadence for the Trace view; 0 picks the smallest
    /// route round-trip.
    double sample_interval_ms = 0.0;
    double tail_fraction = 0.5;
    /// Hard cwnd cap passed to every sender. The fluid model tolerates
    /// essentially unbounded windows; a packet simulation's event count
    /// scales with the real window, so runaway protocols must be capped.
    double max_window_mss = 1e7;
  };

  explicit MultiHopNetwork(const Config& config);

  MultiHopNetwork(const MultiHopNetwork&) = delete;
  MultiHopNetwork& operator=(const MultiHopNetwork&) = delete;

  /// Adds a unidirectional link with a positive one-way delay and the given
  /// queue discipline; returns its id.
  int add_link(double mbps, double one_way_delay_ms,
               std::unique_ptr<QueueDiscipline> queue);
  /// Droptail shorthand.
  int add_link(double mbps, double one_way_delay_ms,
               std::size_t buffer_packets);

  /// Adds a flow routed over `route` (ordered link ids). The reverse path is
  /// modeled as a fixed delay equal to the route's total one-way propagation.
  /// A non-negative `stop_seconds` removes the flow at that time (churn).
  int add_flow(std::unique_ptr<cc::Protocol> protocol, std::vector<int> route,
               double start_seconds = 0.0, double initial_window = 2.0,
               double stop_seconds = -1.0);

  /// Installs a fluid::StepMonitor, called after every trace sample;
  /// returning false stops the simulation at that sample (the trace keeps
  /// the steps recorded so far). Must be set before run().
  void set_step_monitor(fluid::StepMonitor monitor);

  /// Injected (non-congestion) loss applied to forward data packets on final
  /// delivery. Default: none. Must be set before run().
  void set_forward_filter(std::unique_ptr<PacketFilter> filter);

  /// Runs for the configured duration. Call once.
  void run();

  [[nodiscard]] int num_flows() const {
    return static_cast<int>(senders_.size());
  }
  [[nodiscard]] int num_links() const {
    return static_cast<int>(links_.size());
  }
  [[nodiscard]] const Sender& sender(int flow) const;
  [[nodiscard]] const SimLink& link(int id) const;
  /// Mutable link access for mid-run perturbation (rate or delay schedules
  /// installed by the engine backend).
  [[nodiscard]] SimLink& mutable_link(int id);
  [[nodiscard]] Simulator& simulator() { return simulator_; }

  /// Sampled per-flow window trace (valid after run()); capacity is the
  /// minimum link capacity (in MSS) over any route, min-RTT the smallest
  /// route round-trip. The congestion series records the binding (maximum)
  /// per-link drop rate over each sampling window.
  [[nodiscard]] const fluid::Trace& trace() const;

  /// Tail-average goodput of a flow in Mbps (valid after run()).
  [[nodiscard]] double flow_throughput_mbps(int flow) const;

  /// Per-flow tail summaries (valid after run()).
  [[nodiscard]] std::vector<FlowReport> flow_reports() const;

  /// Delivered bits over capacity·duration of the MOST utilized link — the
  /// bottleneck utilization on a one-link network (valid after run()).
  [[nodiscard]] double max_link_utilization() const;

 private:
  /// Packet-event ports: an ACK reaching its sender, a data packet entering
  /// its route; port kLinkExit + link_id is a packet leaving link link_id.
  enum Port : int { kAckReturn = 0, kRouteEntry = 1, kLinkExit = 2 };

  void on_packet_event(int port, const Packet& packet) override;
  void sample_trace();
  [[nodiscard]] FlowReport tail_report(int flow) const;

  Config config_;
  Simulator simulator_;

  struct LinkInfo {
    std::unique_ptr<SimLink> link;
    double one_way_delay_ms = 0.0;
    double mbps = 0.0;
    std::size_t drops_at_last_sample = 0;
    std::size_t accepted_at_last_sample = 0;
  };
  struct FlowInfo {
    std::vector<int> route;
    /// next_hop[link_id] = 1 + index into route of link_id, i.e. the index
    /// of the hop AFTER it; 0 (or past the end) = not on the route.
    std::vector<std::size_t> next_hop;
    double start_seconds = 0.0;
    double stop_seconds = -1.0;
    double route_rtt_ms = 0.0;
    /// ACK return delay: the route's one-way propagation.
    SimTime reverse_delay{0};
    /// The flow's ACKs in flight; the delay is fixed, so they stay in order.
    Simulator::LineId ack_line = 0;
  };

  void deliver_from_link(int link_id, const Packet& p);

  std::vector<LinkInfo> links_;
  std::vector<FlowInfo> flows_;
  std::vector<std::unique_ptr<Sender>> senders_;

  std::unique_ptr<PacketFilter> forward_filter_;
  fluid::StepMonitor step_monitor_;
  bool monitor_stopped_ = false;

  std::unique_ptr<fluid::Trace> trace_;
  std::vector<std::size_t> eval_frontier_;
  // Rows sample_trace() reuses on every sample, sized once in run().
  std::vector<double> sample_windows_;
  std::vector<double> sample_loss_;
  bool ran_ = false;
};

/// Packet-level parking lot: `bottlenecks` equal links in series; flow 0 runs
/// over all of them, one short flow per link. All flows clone `prototype`.
struct PacketParkingLot {
  std::unique_ptr<MultiHopNetwork> network;
  int long_flow = 0;
  std::vector<int> short_flows;
};
[[nodiscard]] PacketParkingLot make_packet_parking_lot(
    double mbps, double per_link_delay_ms, std::size_t buffer_packets,
    int bottlenecks, const cc::Protocol& prototype,
    const MultiHopNetwork::Config& config = {});

}  // namespace axiomcc::sim
