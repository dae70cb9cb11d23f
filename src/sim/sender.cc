#include "sim/sender.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace axiomcc::sim {

Sender::Sender(Simulator& simulator, const SenderConfig& config,
               std::unique_ptr<cc::Protocol> protocol, PacketHandler& out,
               int out_port)
    : simulator_(simulator),
      config_(config),
      protocol_(std::move(protocol)),
      out_(out),
      out_port_(out_port),
      cwnd_(config.initial_window),
      in_slow_start_(config.slow_start),
      ssthresh_(config.initial_ssthresh) {
  AXIOMCC_EXPECTS(protocol_ != nullptr);
  AXIOMCC_EXPECTS(config.mss_bytes > 0);
  AXIOMCC_EXPECTS(config.min_window >= 1.0);
  AXIOMCC_EXPECTS(config.initial_window >= config.min_window);
  AXIOMCC_EXPECTS(config.max_window > config.min_window);
  AXIOMCC_EXPECTS(config.grace_factor >= 1.0);
}

void Sender::start(SimTime at) {
  AXIOMCC_EXPECTS_MSG(!started_, "sender already started");
  started_ = true;
  simulator_.schedule_at(at, [this] {
    begun_ = true;
    begin_monitor_interval();
    try_send();
  });
}

void Sender::stop_at(SimTime at) {
  AXIOMCC_EXPECTS_MSG(started_, "stop_at requires start first");
  simulator_.schedule_at(at, [this] { stopped_ = true; });
}

SimTime Sender::current_mi_duration() const {
  if (srtt_seconds_ <= 0.0) return config_.initial_mi;
  const SimTime srtt = SimTime::from_seconds(srtt_seconds_);
  return std::clamp(srtt, config_.min_mi, config_.max_mi);
}

void Sender::begin_monitor_interval() {
  monitor_records_.push_back(MonitorRecord{.start = simulator_.now(),
                                           .window = cwnd_,
                                           .first_seq = packet_states_.size()});
  const std::uint64_t mi = current_mi();
  simulator_.schedule_in(current_mi_duration(),
                         [this, mi] { end_monitor_interval(mi); });
}

void Sender::end_monitor_interval(std::uint64_t mi) {
  MonitorRecord& rec = monitor_records_[mi];
  if (rec.ended) return;  // force-ended by loss detection; timer is stale
  rec.ended = true;
  rec.end = simulator_.now();
  // The next MI starts immediately — unless the flow was churned away, in
  // which case the MI chain (and its timer events) ends here.
  if (!stopped_) begin_monitor_interval();

  // Give the tail of the finished MI one-and-a-half RTTs for its ACKs; if
  // everything resolves earlier (all ACKed, or a loss is detected via the
  // FIFO gap rule), on_ack finalizes the interval without waiting.
  const SimTime grace = SimTime::from_seconds(
      config_.grace_factor *
      std::max(current_mi_duration().seconds(),
               srtt_seconds_ > 0.0 ? srtt_seconds_ : 0.0));
  simulator_.schedule_in(grace, [this, mi] {
    writeoff_stragglers(mi);
    finalize_monitor_interval(mi);
    try_send();
  });
}

void Sender::writeoff_stragglers(std::uint64_t mi) {
  const MonitorRecord& rec = monitor_records_[mi];
  for (std::uint64_t seq = rec.first_seq; seq < rec.first_seq + rec.sent;
       ++seq) {
    if (packet_states_[seq] == PacketState::kInFlight) {
      record_loss(seq);
    }
  }
}

void Sender::record_loss(std::uint64_t seq) {
  AXIOMCC_EXPECTS(packet_states_[seq] == PacketState::kInFlight);
  packet_states_[seq] = PacketState::kWrittenOff;
  AXIOMCC_ENSURES(in_flight_ > 0);
  --in_flight_;
  MonitorRecord& rec = monitor_records_[packet_mi_[seq]];
  ++rec.lost;
  // Epoch classification happens at detection time: the recovery marker only
  // ever advances, and a packet sent before the last window reduction can
  // never become "new" again.
  if (seq >= recovery_until_seq_) ++rec.lost_new_epoch;
}

void Sender::finalize_monitor_interval(std::uint64_t mi) {
  MonitorRecord& rec = monitor_records_[mi];
  if (rec.evaluated) return;

  // Loss estimate: drops are contiguous queue-overflow bursts, so packets
  // still in flight at a forced (loss-triggered) finalization are expected
  // to be delivered — lost/sent is the interval's final rate to first
  // order, where lost/(acked+lost) would wildly overestimate it.
  rec.loss_rate = rec.sent > 0 ? static_cast<double>(rec.lost) /
                                     static_cast<double>(rec.sent)
                               : 0.0;
  // Until now every ACK of the MI added its sample to rtt_sum_seconds.
  rec.rtt_seconds = rec.acked > 0 ? rec.rtt_sum_seconds /
                                        static_cast<double>(rec.acked)
                                  : srtt_seconds_;
  rec.evaluated = true;

  // An interval that carried no data gives the protocol no feedback —
  // feeding it a fabricated "no loss" step would grow the window through a
  // total blackout. Skip the update (TCP's recovery freeze behaves alike).
  if (rec.sent == 0) return;

  // One decrease per congestion epoch (TCP fast-recovery semantics): a loss
  // burst at the queue spans several monitor intervals' packets, but the
  // window must only react once. Only losses among packets sent AFTER the
  // last window reduction (classified at detection time in record_loss) may
  // trigger another one; pure old-epoch loss is reported as loss-free.
  const bool loss_already_handled = rec.lost_new_epoch == 0;
  const double effective_loss = loss_already_handled ? 0.0 : rec.loss_rate;

  // TCP slow start: exponential growth handled by the transport, not the
  // congestion-control protocol, until the first loss or ssthresh.
  if (in_slow_start_) {
    if (effective_loss > 0.0) {
      ssthresh_ = std::max(cwnd_ / 2.0, config_.min_window);
      in_slow_start_ = false;  // fall through: the protocol reacts to the loss
    } else {
      cwnd_ = std::min(cwnd_ * 2.0, config_.max_window);
      if (cwnd_ >= ssthresh_) {
        cwnd_ = std::min(cwnd_, ssthresh_);
        in_slow_start_ = false;
      }
      return;
    }
  }

  const double previous_cwnd = cwnd_;
  const cc::Observation obs{cwnd_, effective_loss, rec.rtt_seconds};
  cwnd_ = std::clamp(protocol_->next_window(obs), config_.min_window,
                     config_.max_window);
  if (effective_loss > 0.0 && cwnd_ < previous_cwnd) {
    recovery_until_seq_ = packet_states_.size();
  }
}

void Sender::try_send() {
  if (stopped_) return;  // churned away: in-flight packets just drain.
  // ACK-clocked: keep at most floor-with-tolerance(cwnd) packets in flight —
  // but never blast more than max_burst_packets back-to-back; the remainder
  // of a large window jump is micro-paced across a fraction of the RTT.
  int burst = 0;
  while (static_cast<double>(in_flight_) + 1.0 <= cwnd_ + 1e-9) {
    if (burst >= config_.max_burst_packets) {
      if (!pacing_rearm_scheduled_) {
        pacing_rearm_scheduled_ = true;
        const double srtt =
            srtt_seconds_ > 0.0 ? srtt_seconds_ : config_.initial_mi.seconds();
        simulator_.schedule_in(SimTime::from_seconds(srtt / 10.0), [this] {
          pacing_rearm_scheduled_ = false;
          try_send();
        });
      }
      return;
    }
    ++burst;
    const Packet p{.flow_id = config_.flow_id,
                   .seq = packet_states_.size(),
                   .size_bytes = config_.mss_bytes,
                   .sent_at = simulator_.now()};
    packet_states_.push_back(PacketState::kInFlight);
    packet_mi_.push_back(current_mi());
    ++monitor_records_.back().sent;
    ++in_flight_;
    out_.on_packet_event(out_port_, p);
  }
}

void Sender::on_ack(const Packet& ack) {
  AXIOMCC_EXPECTS(ack.is_ack);
  AXIOMCC_EXPECTS(ack.seq < packet_states_.size());
  ++acks_received_;

  PacketState& state = packet_states_[ack.seq];
  if (state == PacketState::kAcked) return;  // duplicate; FIFO paths don't dup,
                                             // but stay defensive
  const bool was_in_flight = state == PacketState::kInFlight;
  state = PacketState::kAcked;
  if (was_in_flight) {
    AXIOMCC_ENSURES(in_flight_ > 0);
    --in_flight_;
  }

  // RTT sample from the echoed send timestamp.
  const double sample = (simulator_.now() - ack.sent_at).seconds();
  srtt_seconds_ =
      srtt_seconds_ <= 0.0 ? sample : 0.875 * srtt_seconds_ + 0.125 * sample;

  // Credit the MI the packet belonged to. The delivery count always updates
  // (flow reports want true goodput), but a late ACK must not retroactively
  // change an already-consumed Observation's RTT sample set.
  MonitorRecord& acked_rec = monitor_records_[packet_mi_[ack.seq]];
  ++acked_rec.acked;
  if (!acked_rec.evaluated) acked_rec.rtt_sum_seconds += sample;

  // The per-flow path is FIFO: this ACK proves every older unACKed packet
  // was dropped. Write them off now (dup-ACK-style one-RTT loss detection)
  // instead of waiting for the MI grace timer.
  while (lowest_unresolved_seq_ < ack.seq) {
    const std::uint64_t seq = lowest_unresolved_seq_;
    if (packet_states_[seq] == PacketState::kInFlight) record_loss(seq);
    ++lowest_unresolved_seq_;
  }
  while (lowest_unresolved_seq_ < packet_states_.size() &&
         packet_states_[lowest_unresolved_seq_] != PacketState::kInFlight) {
    ++lowest_unresolved_seq_;
  }

  // A fresh (new-epoch) loss in the ACTIVE interval: react now, as TCP's
  // fast retransmit does — close the interval on the spot and consume its
  // observation, instead of letting the window keep growing until the
  // interval timer fires. Same trustworthiness guard as above: the early
  // verdict needs a majority of the interval resolved.
  {
    const std::uint64_t active = current_mi();
    const MonitorRecord& rec = monitor_records_[active];
    if (rec.lost_new_epoch > 0 && 2 * (rec.acked + rec.lost) >= rec.sent) {
      end_monitor_interval(active);
      finalize_monitor_interval(active);
    }
  }

  // Finalize ended monitor intervals as soon as their verdict is known:
  // either every packet is accounted for, or a loss has been detected (TCP
  // reacts to the first loss signal, not to the end of an accounting
  // period) AND a majority of the interval has resolved — the lost/sent
  // estimate is only trustworthy once most packets have reported back;
  // finalizing a barely-resolved interval under sustained overload would
  // report a sliver of the true loss rate.
  while (eval_cursor_ < current_mi()) {
    const MonitorRecord& rec = monitor_records_[eval_cursor_];
    if (rec.evaluated) {
      ++eval_cursor_;
      continue;
    }
    const std::uint64_t resolved = rec.acked + rec.lost;
    const bool fully_resolved = resolved >= rec.sent;
    const bool loss_verdict_trustworthy =
        rec.lost_new_epoch > 0 && 2 * resolved >= rec.sent;
    if (fully_resolved || loss_verdict_trustworthy) {
      finalize_monitor_interval(eval_cursor_);
      ++eval_cursor_;
    } else {
      break;
    }
  }

  try_send();
}

}  // namespace axiomcc::sim
