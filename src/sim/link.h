// link.h — a unidirectional link with a queue, a serialization rate, and a
// propagation delay.
//
// Packets admitted by the queue are transmitted one at a time at `rate_bps`
// and delivered `propagation_delay` after their last bit leaves. This is the
// store-and-forward output-port model ns-3's point-to-point links use. Both
// steps are typed packet events (sim/event.h) and allocate nothing per
// packet. The link has at most one tx-done event in the heap; its deliveries
// ride one delay line, so however many packets are on the wire, they cost
// one heap entry between them (a packet overtaking others after the delay
// shrinks takes its own).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "sim/event.h"
#include "sim/packet.h"
#include "sim/queue.h"
#include "util/units.h"

namespace axiomcc::sim {

/// Downstream delivery callback.
using DeliverFn = std::function<void(const Packet&)>;

class SimLink final : private PacketHandler {
 public:
  SimLink(Simulator& simulator, double rate_bps, SimTime propagation_delay,
          std::unique_ptr<QueueDiscipline> queue, DeliverFn deliver);

  /// Offers a packet to the link; it is queued, transmitted, and delivered,
  /// or dropped by the queue discipline.
  void send(const Packet& p);

  [[nodiscard]] double rate_bps() const { return rate_bps_; }

  /// Retargets the serialization rate (stress scenarios: outages, capacity
  /// oscillation). Takes effect from the next packet transmission; the
  /// packet currently on the wire keeps its original serialization time.
  void set_rate_bps(double rate_bps) {
    AXIOMCC_EXPECTS(rate_bps > 0.0);
    rate_bps_ = rate_bps;
  }
  [[nodiscard]] SimTime propagation_delay() const { return propagation_delay_; }

  /// Retargets the propagation delay (stress scenarios: RTT inflation after
  /// a path change). Takes effect for packets delivered from now on; packets
  /// already past the queue keep their original delay.
  void set_propagation_delay(SimTime delay) {
    AXIOMCC_EXPECTS(delay.ns() >= 0);
    propagation_delay_ = delay;
  }
  [[nodiscard]] const QueueDiscipline& queue() const { return *queue_; }

  [[nodiscard]] std::size_t packets_accepted() const { return accepted_; }
  [[nodiscard]] std::size_t packets_delivered() const { return delivered_; }
  [[nodiscard]] std::size_t packets_dropped() const { return queue_->drops(); }
  [[nodiscard]] std::size_t bytes_delivered() const { return bytes_delivered_; }

  /// Serialization time of a packet of `size_bytes` at this link's rate.
  [[nodiscard]] SimTime serialization_time(int size_bytes) const;

 private:
  enum Port : int { kTxDone = 0, kDelivery = 1 };

  void begin_transmission();
  void on_packet_event(int port, const Packet& packet) override;

  Simulator& simulator_;
  double rate_bps_;
  SimTime propagation_delay_;
  std::unique_ptr<QueueDiscipline> queue_;
  DeliverFn deliver_;
  Simulator::LineId delivery_line_;

  bool transmitting_ = false;
  std::size_t accepted_ = 0;
  std::size_t delivered_ = 0;
  std::size_t bytes_delivered_ = 0;
};

}  // namespace axiomcc::sim
