#include "sim/network.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"

namespace axiomcc::sim {

MultiHopNetwork::MultiHopNetwork(const Config& config) : config_(config) {
  AXIOMCC_EXPECTS(config.duration_seconds > 0.0);
  AXIOMCC_EXPECTS(config.mss_bytes > 0);
  AXIOMCC_EXPECTS(config.tail_fraction >= 0.0 && config.tail_fraction < 1.0);
  AXIOMCC_EXPECTS(config.max_window_mss > 0.0);
}

int MultiHopNetwork::add_link(double mbps, double one_way_delay_ms,
                              std::unique_ptr<QueueDiscipline> queue) {
  AXIOMCC_EXPECTS_MSG(!ran_, "add_link must precede run()");
  AXIOMCC_EXPECTS(mbps > 0.0);
  AXIOMCC_EXPECTS(one_way_delay_ms > 0.0);
  AXIOMCC_EXPECTS(queue != nullptr);

  const int link_id = static_cast<int>(links_.size());
  LinkInfo info;
  info.one_way_delay_ms = one_way_delay_ms;
  info.mbps = mbps;
  info.link = std::make_unique<SimLink>(
      simulator_, mbps * 1e6, SimTime::from_millis(one_way_delay_ms),
      std::move(queue), static_cast<PacketHandler&>(*this),
      kLinkExit + link_id);
  links_.push_back(std::move(info));
  return link_id;
}

int MultiHopNetwork::add_link(double mbps, double one_way_delay_ms,
                              std::size_t buffer_packets) {
  return add_link(mbps, one_way_delay_ms,
                  std::make_unique<DropTailQueue>(buffer_packets));
}

int MultiHopNetwork::add_flow(std::unique_ptr<cc::Protocol> protocol,
                              std::vector<int> route, double start_seconds,
                              double initial_window, double stop_seconds) {
  AXIOMCC_EXPECTS_MSG(!ran_, "add_flow must precede run()");
  AXIOMCC_EXPECTS(protocol != nullptr);
  AXIOMCC_EXPECTS(!route.empty());
  AXIOMCC_EXPECTS(start_seconds >= 0.0);
  AXIOMCC_EXPECTS(stop_seconds < 0.0 || stop_seconds > start_seconds);

  const int flow_id = num_flows();

  FlowInfo flow;
  flow.route = route;
  flow.next_hop.assign(links_.size(), 0);
  flow.start_seconds = start_seconds;
  flow.stop_seconds = stop_seconds;
  double one_way_ms = 0.0;
  for (std::size_t hop = 0; hop < route.size(); ++hop) {
    const int link_id = route[hop];
    AXIOMCC_EXPECTS(link_id >= 0 &&
                    link_id < static_cast<int>(links_.size()));
    AXIOMCC_EXPECTS_MSG(flow.next_hop[link_id] == 0,
                        "a route may not repeat a link");
    flow.next_hop[link_id] = hop + 1;
    one_way_ms += links_[link_id].one_way_delay_ms;
  }
  flow.route_rtt_ms = 2.0 * one_way_ms;
  flow.reverse_delay = SimTime::from_millis(one_way_ms);
  flow.ack_line = simulator_.add_line(*this, kAckReturn);
  flows_.push_back(std::move(flow));

  SenderConfig sc;
  sc.flow_id = flow_id;
  sc.mss_bytes = config_.mss_bytes;
  sc.initial_window = initial_window;
  sc.max_window = config_.max_window_mss;
  // Before the first RTT sample, pace MIs at the route's propagation RTT.
  sc.initial_mi = SimTime::from_millis(flows_.back().route_rtt_ms);

  senders_.push_back(std::make_unique<Sender>(
      simulator_, sc, std::move(protocol), static_cast<PacketHandler&>(*this),
      kRouteEntry));
  return flow_id;
}

void MultiHopNetwork::set_step_monitor(fluid::StepMonitor monitor) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_step_monitor must precede run()");
  AXIOMCC_EXPECTS(monitor != nullptr);
  step_monitor_ = std::move(monitor);
}

void MultiHopNetwork::set_forward_filter(std::unique_ptr<PacketFilter> filter) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_forward_filter must precede run()");
  AXIOMCC_EXPECTS(filter != nullptr);
  forward_filter_ = std::move(filter);
}

void MultiHopNetwork::deliver_from_link(int link_id, const Packet& p) {
  AXIOMCC_EXPECTS(p.flow_id >= 0 && p.flow_id < num_flows());
  const FlowInfo& flow = flows_[p.flow_id];
  const auto link = static_cast<std::size_t>(link_id);
  const std::size_t next =
      link < flow.next_hop.size() ? flow.next_hop[link] : 0;
  AXIOMCC_EXPECTS_MSG(next != 0,
                      "packet delivered by a link not on its flow's route");
  if (next < flow.route.size()) {
    links_[flow.route[next]].link->send(p);
    return;
  }
  // Injected loss on final delivery: the packet crossed every queue
  // (consuming capacity) but never reaches the receiver, so the sender
  // observes it as loss.
  if (forward_filter_ && forward_filter_->drop(p)) return;
  // The receiver ACKs every packet, echoing its sequence number and send
  // timestamp. No delayed ACKs: the sender reads an ACK for seq s while an
  // older packet is unACKed as loss, so a skipped ACK would look like a drop.
  simulator_.schedule_on_line(
      flow.ack_line, flow.reverse_delay,
      Packet{.flow_id = p.flow_id, .seq = p.seq, .size_bytes = kAckBytes,
             .is_ack = true, .sent_at = p.sent_at});
}

void MultiHopNetwork::on_packet_event(int port, const Packet& packet) {
  if (port == kAckReturn) {
    senders_[packet.flow_id]->on_ack(packet);
  } else if (port == kRouteEntry) {
    links_[flows_[packet.flow_id].route.front()].link->send(packet);
  } else {
    deliver_from_link(port - kLinkExit, packet);
  }
}

void MultiHopNetwork::run() {
  AXIOMCC_EXPECTS_MSG(!ran_, "run() may be called only once");
  AXIOMCC_EXPECTS_MSG(num_flows() > 0, "add at least one flow before run()");
  ran_ = true;

  // Trace conventions as in FluidSimulation's routed loop (fluid/sim.h).
  double min_capacity = std::numeric_limits<double>::infinity();
  double min_rtt_ms = std::numeric_limits<double>::infinity();
  for (const FlowInfo& f : flows_) {
    for (int l : f.route) {
      const double capacity_mss =
          links_[l].mbps * 1e6 * (f.route_rtt_ms / 1e3) /
          (8.0 * static_cast<double>(config_.mss_bytes));
      min_capacity = std::min(min_capacity, capacity_mss);
    }
    min_rtt_ms = std::min(min_rtt_ms, f.route_rtt_ms);
  }
  trace_ = std::make_unique<fluid::Trace>(num_flows(), min_capacity,
                                          min_rtt_ms / 1e3);
  eval_frontier_.assign(num_flows(), 0);
  sample_windows_.assign(num_flows(), 0.0);
  sample_loss_.assign(num_flows(), 0.0);

  for (int f = 0; f < num_flows(); ++f) {
    senders_[f]->start(SimTime::from_seconds(flows_[f].start_seconds));
    if (flows_[f].stop_seconds >= 0.0) {
      senders_[f]->stop_at(SimTime::from_seconds(flows_[f].stop_seconds));
    }
  }

  const double interval_ms = config_.sample_interval_ms > 0.0
                                 ? config_.sample_interval_ms
                                 : min_rtt_ms;
  const SimTime interval = SimTime::from_millis(interval_ms);
  AXIOMCC_EXPECTS_MSG(interval.ns() > 0, "sample interval below 1 ns");
  const SimTime end = SimTime::from_seconds(config_.duration_seconds);
  simulator_.schedule_every(interval, interval, end,
                            [this] { sample_trace(); });
  simulator_.run_until(end);
}

void MultiHopNetwork::sample_trace() {
  const int n = num_flows();
  std::vector<double>& windows = sample_windows_;
  std::vector<double>& observed_loss = sample_loss_;
  double rtt_sum = 0.0;
  int rtt_count = 0;
  for (int i = 0; i < n; ++i) {
    const Sender& s = *senders_[i];
    // Churned-away (or not-yet-started) flows contribute no window,
    // matching the fluid network's churn semantics.
    windows[i] = s.active() ? s.cwnd() : 0.0;
    const auto& records = s.history();
    std::size_t& frontier = eval_frontier_[i];
    while (frontier < records.size() && records[frontier].evaluated) {
      ++frontier;
    }
    observed_loss[i] = frontier > 0 ? records[frontier - 1].loss_rate : 0.0;
    if (s.srtt_seconds() > 0.0) {
      rtt_sum += s.srtt_seconds();
      ++rtt_count;
    }
  }

  // Congestion loss over the sampling window: the binding (max) per-link
  // drop rate, from queue counter deltas — the packet analogue of the fluid
  // network's max-link-loss series.
  double congestion_loss = 0.0;
  for (LinkInfo& info : links_) {
    const std::size_t drops = info.link->packets_dropped();
    const std::size_t accepted = info.link->packets_accepted();
    const std::size_t d_drops = drops - info.drops_at_last_sample;
    const std::size_t d_offered =
        (accepted - info.accepted_at_last_sample) + d_drops;
    info.drops_at_last_sample = drops;
    info.accepted_at_last_sample = accepted;
    if (d_offered > 0) {
      congestion_loss = std::max(
          congestion_loss,
          static_cast<double>(d_drops) / static_cast<double>(d_offered));
    }
  }

  const double rtt = rtt_count > 0
                         ? rtt_sum / static_cast<double>(rtt_count)
                         : trace_->min_rtt_seconds();
  trace_->add_step(windows, rtt, congestion_loss, observed_loss);

  if (step_monitor_ && !monitor_stopped_) {
    const long step = static_cast<long>(trace_->num_steps()) - 1;
    if (!step_monitor_(step, std::span<const double>(windows), rtt,
                       congestion_loss)) {
      monitor_stopped_ = true;
      simulator_.request_stop();
    }
  }
}

const Sender& MultiHopNetwork::sender(int flow) const {
  AXIOMCC_EXPECTS(flow >= 0 && flow < num_flows());
  return *senders_[flow];
}

const SimLink& MultiHopNetwork::link(int id) const {
  AXIOMCC_EXPECTS(id >= 0 && id < num_links());
  return *links_[id].link;
}

SimLink& MultiHopNetwork::mutable_link(int id) {
  AXIOMCC_EXPECTS(id >= 0 && id < num_links());
  return *links_[id].link;
}

const fluid::Trace& MultiHopNetwork::trace() const {
  AXIOMCC_EXPECTS_MSG(trace_ != nullptr, "trace() requires run() first");
  return *trace_;
}

double MultiHopNetwork::flow_throughput_mbps(int flow) const {
  AXIOMCC_EXPECTS_MSG(ran_, "flow_throughput_mbps() requires run() first");
  AXIOMCC_EXPECTS(flow >= 0 && flow < num_flows());
  return tail_report(flow).throughput_mbps;
}

std::vector<FlowReport> MultiHopNetwork::flow_reports() const {
  AXIOMCC_EXPECTS_MSG(ran_, "flow_reports() requires run() first");
  std::vector<FlowReport> reports;
  reports.reserve(senders_.size());
  for (int f = 0; f < num_flows(); ++f) reports.push_back(tail_report(f));
  return reports;
}

FlowReport MultiHopNetwork::tail_report(int flow) const {
  const Sender& sender = *senders_[flow];
  FlowReport r;
  r.protocol_name = sender.protocol().name();

  const double tail_start_s = config_.duration_seconds * config_.tail_fraction;
  double window_sum = 0.0;
  double rtt_sum = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
  std::size_t count = 0;
  for (const MonitorRecord& rec : sender.history()) {
    if (!rec.evaluated) continue;
    if (rec.start.seconds() < tail_start_s) continue;
    window_sum += rec.window;
    rtt_sum += rec.rtt_seconds;
    sent += rec.sent;
    acked += rec.acked;
    ++count;
  }
  if (count > 0) {
    r.avg_window_mss = window_sum / static_cast<double>(count);
    r.avg_rtt_ms = rtt_sum / static_cast<double>(count) * 1e3;
    r.loss_rate = sent > 0 ? 1.0 - static_cast<double>(acked) /
                                       static_cast<double>(sent)
                           : 0.0;
    const double tail_seconds = config_.duration_seconds - tail_start_s;
    r.throughput_mbps = static_cast<double>(acked) *
                        static_cast<double>(config_.mss_bytes) * 8.0 /
                        tail_seconds / 1e6;
  }
  return r;
}

double MultiHopNetwork::max_link_utilization() const {
  AXIOMCC_EXPECTS_MSG(ran_, "max_link_utilization() requires run() first");
  double max_util = 0.0;
  for (const LinkInfo& info : links_) {
    const double delivered_bits =
        static_cast<double>(info.link->bytes_delivered()) * 8.0;
    const double capacity_bits =
        info.mbps * 1e6 * config_.duration_seconds;
    max_util = std::max(max_util, delivered_bits / capacity_bits);
  }
  return max_util;
}

PacketParkingLot make_packet_parking_lot(double mbps, double per_link_delay_ms,
                                         std::size_t buffer_packets,
                                         int bottlenecks,
                                         const cc::Protocol& prototype,
                                         const MultiHopNetwork::Config& config) {
  AXIOMCC_EXPECTS(bottlenecks >= 1);
  PacketParkingLot lot;
  lot.network = std::make_unique<MultiHopNetwork>(config);

  std::vector<int> long_route;
  for (int i = 0; i < bottlenecks; ++i) {
    long_route.push_back(
        lot.network->add_link(mbps, per_link_delay_ms, buffer_packets));
  }
  lot.long_flow = lot.network->add_flow(prototype.clone(), long_route);
  for (int i = 0; i < bottlenecks; ++i) {
    lot.short_flows.push_back(
        lot.network->add_flow(prototype.clone(), {long_route[i]}));
  }
  return lot;
}

}  // namespace axiomcc::sim
