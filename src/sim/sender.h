// sender.h — a window-based transport endpoint driven by a cc::Protocol.
//
// The sender is ACK-clocked: it keeps `in_flight < cwnd`. Loss is accounted
// per *monitor interval* (MI), the mechanism PCC and the paper's Robust-AIMD
// use: time is sliced into intervals of roughly one RTT, and each MI owns the
// contiguous run of sequence numbers sent while it was active. When an MI's
// ACKs have had time to return, the sender computes the interval's loss rate
// and average RTT and feeds them to the congestion-control protocol as one
// Observation — exactly the per-RTT-step feedback of the fluid model, but
// measured rather than oracle-provided. history() holds one MonitorRecord per
// MI: what it sent, what came back, what was lost, and the RTT it saw.
//
// Data packets leave through a PacketHandler port (the network's route
// entry), called synchronously: sending schedules no event. ACKs come back
// through on_ack().
//
// Packets the MI evaluation deems lost are written off (removed from
// in_flight) rather than retransmitted: the simulator measures congestion
// dynamics and goodput, not reliable-delivery semantics (see DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/protocol.h"
#include "sim/event.h"
#include "sim/packet.h"
#include "util/units.h"

namespace axiomcc::sim {

struct SenderConfig {
  int flow_id = 0;
  int mss_bytes = 1500;
  double initial_window = 2.0;
  double min_window = 1.0;
  double max_window = 1e7;
  /// MI length before the first RTT sample arrives.
  SimTime initial_mi = SimTime::from_millis(50);
  SimTime min_mi = SimTime::from_millis(1);
  SimTime max_mi = SimTime::from_millis(2000);
  /// The MI is evaluated `grace_factor` × max(srtt, MI length) after it ends,
  /// giving the last packets' ACKs time to return.
  double grace_factor = 1.5;
  /// Maximum packets emitted back-to-back by one send opportunity. Window
  /// jumps larger than this are spread across the RTT (micro-pacing), like
  /// TCP's maxburst/pacing — an un-paced jump would slam a burst into a
  /// shallow buffer that an equivalent fluid rate would not lose.
  int max_burst_packets = 6;
  /// TCP slow start: double the window each loss-free interval until the
  /// first loss (which sets ssthresh = cwnd/2 and hands control to the
  /// congestion-control protocol) or until `ssthresh` is reached. Off by
  /// default — the paper's model starts in congestion avoidance.
  bool slow_start = false;
  double initial_ssthresh = 1e9;
};

/// One monitor interval (the packet-level analogue of a fluid step). It owns
/// sequence numbers [first_seq, first_seq + sent).
struct MonitorRecord {
  SimTime start{0};
  SimTime end{0};
  double window = 0.0;           ///< cwnd while the MI was active.
  std::uint64_t first_seq = 0;   ///< first sequence number sent in the MI.
  std::uint64_t sent = 0;        ///< data packets sent during the MI.
  std::uint64_t acked = 0;       ///< of those, ACKed so far.
  /// Of those, written off as lost so far. A packet the grace timer wrote
  /// off whose ACK still arrived counts here and in `acked`.
  std::uint64_t lost = 0;
  /// Of `lost`, those sent after the window's last loss-driven decrease
  /// (the current congestion epoch); only these may trigger another one.
  std::uint64_t lost_new_epoch = 0;
  /// Sum of the RTT samples of ACKs that arrived before evaluation; there
  /// are `acked` of them until the MI is evaluated.
  double rtt_sum_seconds = 0.0;
  double loss_rate = 0.0;        ///< lost/sent at evaluation time.
  double rtt_seconds = 0.0;      ///< mean RTT sample of the MI's ACKs.
  bool ended = false;            ///< no longer the active interval.
  bool evaluated = false;        ///< observation consumed by the protocol.
};

class Sender {
 public:
  /// Data packets go to `out.on_packet_event(out_port, packet)`; `out`
  /// must outlive the sender.
  Sender(Simulator& simulator, const SenderConfig& config,
         std::unique_ptr<cc::Protocol> protocol, PacketHandler& out,
         int out_port);

  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Begins sending at absolute time `at`.
  void start(SimTime at);

  /// Stops the flow at absolute time `at` (flow-churn scenarios): no packets
  /// are emitted from then on, in-flight packets simply drain, and the
  /// protocol is no longer consulted. Must be called before the stop time.
  void stop_at(SimTime at);

  /// True from the scheduled start time until the scheduled stop (the window
  /// a trace sample should report this sender's cwnd; outside it the flow
  /// contributes nothing and samples read 0).
  [[nodiscard]] bool active() const { return begun_ && !stopped_; }

  /// Delivery point for returning ACKs.
  void on_ack(const Packet& ack);

  [[nodiscard]] int flow_id() const { return config_.flow_id; }
  [[nodiscard]] double cwnd() const { return cwnd_; }
  [[nodiscard]] double srtt_seconds() const { return srtt_seconds_; }
  [[nodiscard]] const cc::Protocol& protocol() const { return *protocol_; }

  /// True while the sender is still in slow start (always false when the
  /// config disables it).
  [[nodiscard]] bool in_slow_start() const { return in_slow_start_; }
  [[nodiscard]] double ssthresh() const { return ssthresh_; }

  [[nodiscard]] std::uint64_t packets_sent() const {
    return packet_states_.size();
  }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }

  /// All monitor intervals so far (the last ones may be unevaluated).
  [[nodiscard]] const std::vector<MonitorRecord>& history() const {
    return monitor_records_;
  }

 private:
  enum class PacketState : std::uint8_t { kInFlight, kAcked, kWrittenOff };

  void try_send();
  void begin_monitor_interval();
  void end_monitor_interval(std::uint64_t mi);
  /// Writes off still-unACKed packets of an ended MI (grace-timer path).
  void writeoff_stragglers(std::uint64_t mi);
  /// Marks one in-flight packet as lost and classifies its congestion epoch.
  void record_loss(std::uint64_t seq);
  /// Computes the MI's loss/RTT observation and updates the window. Safe to
  /// call more than once; only the first call takes effect.
  void finalize_monitor_interval(std::uint64_t mi);
  [[nodiscard]] SimTime current_mi_duration() const;
  /// The active (last begun) MI; valid once the start event has fired.
  [[nodiscard]] std::uint64_t current_mi() const {
    return monitor_records_.size() - 1;
  }

  Simulator& simulator_;
  SenderConfig config_;
  std::unique_ptr<cc::Protocol> protocol_;
  PacketHandler& out_;
  int out_port_;

  bool started_ = false;
  bool begun_ = false;    ///< the start event has fired.
  bool stopped_ = false;  ///< the stop event has fired.
  double cwnd_;
  bool in_slow_start_ = false;
  double ssthresh_ = 1e9;
  double srtt_seconds_ = 0.0;  ///< 0 until the first sample.
  std::uint64_t in_flight_ = 0;
  /// Losses among packets with seq below this belong to an epoch the window
  /// already reacted to (one decrease per congestion epoch).
  std::uint64_t recovery_until_seq_ = 0;

  // Indexed by seq; the next packet's seq is their size.
  std::vector<PacketState> packet_states_;
  std::vector<std::uint64_t> packet_mi_;
  std::vector<MonitorRecord> monitor_records_;  // indexed by MI id
  bool pacing_rearm_scheduled_ = false;
  /// All packets below this seq are resolved (ACKed or written off). The
  /// delivery path is FIFO per flow, so an ACK for seq s proves every older
  /// unACKed packet was dropped — the dup-ACK analogue, giving one-RTT loss
  /// detection instead of waiting for the MI grace timer.
  std::uint64_t lowest_unresolved_seq_ = 0;
  std::uint64_t eval_cursor_ = 0;  ///< first not-yet-evaluated MI.
  std::uint64_t acks_received_ = 0;
};

}  // namespace axiomcc::sim
