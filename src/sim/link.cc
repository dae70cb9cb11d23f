#include "sim/link.h"

#include <utility>

#include "util/check.h"

namespace axiomcc::sim {

SimLink::SimLink(Simulator& simulator, double rate_bps,
                 SimTime propagation_delay,
                 std::unique_ptr<QueueDiscipline> queue, DeliverFn deliver)
    : simulator_(simulator),
      rate_bps_(rate_bps),
      propagation_delay_(propagation_delay),
      queue_(std::move(queue)),
      deliver_(std::move(deliver)),
      delivery_line_(simulator.add_line(*this, kDelivery)) {
  AXIOMCC_EXPECTS_MSG(rate_bps > 0.0, "link rate must be positive");
  AXIOMCC_EXPECTS(propagation_delay.ns() >= 0);
  AXIOMCC_EXPECTS(queue_ != nullptr);
  AXIOMCC_EXPECTS(deliver_ != nullptr);
}

SimTime SimLink::serialization_time(int size_bytes) const {
  AXIOMCC_EXPECTS(size_bytes > 0);
  const double seconds = static_cast<double>(size_bytes) * 8.0 / rate_bps_;
  return SimTime::from_seconds(seconds);
}

void SimLink::send(const Packet& p) {
  if (!queue_->enqueue(p)) return;  // dropped; queue counts it
  ++accepted_;
  if (!transmitting_) begin_transmission();
}

void SimLink::begin_transmission() {
  const auto next = queue_->dequeue();
  if (!next) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  // The last bit leaves after the serialization time (kTxDone).
  simulator_.schedule_packet_in(serialization_time(next->size_bytes), *this,
                                kTxDone, *next);
}

void SimLink::on_packet_event(int port, const Packet& packet) {
  if (port == kTxDone) {
    // The packet arrives a propagation delay after its last bit left.
    simulator_.schedule_on_line(delivery_line_, propagation_delay_, packet);
    begin_transmission();  // start the next packet, if any
    return;
  }
  ++delivered_;
  bytes_delivered_ += static_cast<std::size_t>(packet.size_bytes);
  deliver_(packet);
}

}  // namespace axiomcc::sim
