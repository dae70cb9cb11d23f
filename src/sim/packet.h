// packet.h — the unit of transmission in the packet-level simulator.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace axiomcc::sim {

/// A data packet or an acknowledgment. ACKs echo the data packet's sequence
/// number and send timestamp so the sender can take an RTT sample without
/// keeping a timer wheel.
struct Packet {
  int flow_id = 0;
  std::uint64_t seq = 0;        ///< per-flow sequence number.
  int size_bytes = 1500;        ///< MSS for data, 40 for ACKs.
  bool is_ack = false;
  SimTime sent_at{0};           ///< when the DATA packet was sent (echoed in ACKs).
};

/// Conventional ACK size in bytes.
inline constexpr int kAckBytes = 40;

}  // namespace axiomcc::sim
