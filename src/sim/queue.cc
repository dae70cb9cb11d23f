#include "sim/queue.h"

#include <algorithm>

#include "util/check.h"

namespace axiomcc::sim {

bool QueueDiscipline::enqueue(const Packet& p) {
  if (!admit(p)) {
    ++drops_;
    return false;
  }
  fifo_.push_back(p);
  bytes_ += static_cast<std::size_t>(p.size_bytes);
  return true;
}

std::optional<Packet> QueueDiscipline::dequeue() {
  if (fifo_.empty()) return std::nullopt;
  const Packet p = fifo_.front();
  fifo_.pop_front();
  bytes_ -= static_cast<std::size_t>(p.size_bytes);
  return p;
}

// --- DropTail ----------------------------------------------------------------

DropTailQueue::DropTailQueue(std::size_t capacity_packets)
    : capacity_(capacity_packets) {
  AXIOMCC_EXPECTS_MSG(capacity_packets > 0, "queue capacity must be positive");
}

bool DropTailQueue::admit(const Packet& /*p*/) {
  return size_packets() < capacity_;
}

// --- RED ----------------------------------------------------------------------

REDQueue::REDQueue(const Params& params) : params_(params), rng_(params.seed) {
  AXIOMCC_EXPECTS(params.capacity_packets > 0);
  AXIOMCC_EXPECTS(params.min_threshold >= 0.0);
  AXIOMCC_EXPECTS(params.max_threshold > params.min_threshold);
  AXIOMCC_EXPECTS(params.max_drop_probability > 0.0 &&
                  params.max_drop_probability <= 1.0);
  AXIOMCC_EXPECTS(params.queue_weight > 0.0 && params.queue_weight <= 1.0);
}

bool REDQueue::admit(const Packet& /*p*/) {
  avg_queue_ = (1.0 - params_.queue_weight) * avg_queue_ +
               params_.queue_weight * static_cast<double>(size_packets());

  bool drop = false;
  if (size_packets() >= params_.capacity_packets) {
    drop = true;  // physical overflow
  } else if (avg_queue_ >= params_.max_threshold) {
    drop = true;
  } else if (avg_queue_ > params_.min_threshold) {
    const double fraction = (avg_queue_ - params_.min_threshold) /
                            (params_.max_threshold - params_.min_threshold);
    double p_base = params_.max_drop_probability * fraction;
    // Spread drops out (Floyd & Jacobson's count correction).
    const double denom =
        1.0 - static_cast<double>(count_since_drop_) * p_base;
    const double p_actual = denom > 0.0 ? std::min(1.0, p_base / denom) : 1.0;
    drop = rng_.bernoulli(p_actual);
  }

  if (drop) {
    count_since_drop_ = 0;
    return false;
  }
  ++count_since_drop_;
  return true;
}

}  // namespace axiomcc::sim
