// queue.h — queueing disciplines for link buffers.
//
// The paper's model is FIFO droptail; RED is provided as an extension for the
// ablation benches (DESIGN.md Section 5). Both share QueueDiscipline's FIFO,
// a grow-only ring buffer (sim/ring.h), so a queue that has reached its
// working depth allocates nothing per packet; a discipline supplies only its
// admission rule.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "sim/packet.h"
#include "sim/ring.h"
#include "util/rng.h"

namespace axiomcc::sim {

/// A bounded FIFO packet queue. enqueue returns false when the packet is
/// dropped.
class QueueDiscipline {
 public:
  virtual ~QueueDiscipline() = default;

  /// Attempts to admit `p`; returns false on drop.
  bool enqueue(const Packet& p);

  /// Removes the next packet to transmit, or nullopt when empty.
  std::optional<Packet> dequeue();

  [[nodiscard]] std::size_t size_packets() const { return fifo_.size(); }
  [[nodiscard]] std::size_t size_bytes() const { return bytes_; }
  [[nodiscard]] virtual std::string name() const = 0;

  /// Total packets dropped by admission control so far.
  [[nodiscard]] std::size_t drops() const { return drops_; }

  /// Packets the FIFO holds before it grows; it never shrinks.
  [[nodiscard]] std::size_t ring_capacity() const { return fifo_.capacity(); }

 private:
  /// The discipline's admission rule: true admits `p` at the current
  /// occupancy, false drops it.
  virtual bool admit(const Packet& p) = 0;

  Ring<Packet> fifo_;
  std::size_t bytes_ = 0;
  std::size_t drops_ = 0;
};

/// FIFO droptail with a capacity in packets (the paper's τ, in MSS).
class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(std::size_t capacity_packets);

  [[nodiscard]] std::string name() const override { return "droptail"; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  bool admit(const Packet& p) override;

  std::size_t capacity_;
};

/// Random Early Detection (Floyd & Jacobson 1993): probabilistic drops that
/// rise linearly between `min_threshold` and `max_threshold` of average
/// occupancy (EWMA with weight `queue_weight`), hard drops beyond.
class REDQueue final : public QueueDiscipline {
 public:
  struct Params {
    std::size_t capacity_packets = 100;
    double min_threshold = 20.0;   ///< packets
    double max_threshold = 80.0;   ///< packets
    double max_drop_probability = 0.1;
    double queue_weight = 0.002;   ///< EWMA weight for the average queue
    std::uint64_t seed = 1;
  };

  explicit REDQueue(const Params& params);

  [[nodiscard]] std::string name() const override { return "red"; }

  /// The current EWMA of queue occupancy (exposed for tests).
  [[nodiscard]] double average_queue() const { return avg_queue_; }

 private:
  bool admit(const Packet& p) override;

  Params params_;
  double avg_queue_ = 0.0;
  std::size_t count_since_drop_ = 0;
  Rng rng_;
};

}  // namespace axiomcc::sim
