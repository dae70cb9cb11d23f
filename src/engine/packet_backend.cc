// packet_backend.cc — executes a ScenarioSpec on the packet-level simulator.
//
// The fluid model's step becomes one RTT of wall-clock time: a spec with S
// steps runs for S·RTT seconds and samples the trace every RTT, giving a
// Trace with (up to) S steps that the metric estimators consume exactly as
// they consume a fluid trace. Scenario elements map as follows:
//  - injected loss: the fluid per-step loss *rate* becomes a per-packet
//    Bernoulli drop at that step's rate (InjectedRateLoss below);
//  - bandwidth schedule: each link's serialization rate is retargeted at
//    each step boundary;
//  - RTT schedule: the forward propagation delay is retargeted so the
//    two-way delay matches scale·RTT (the reverse path is fixed, so the
//    scaling is applied asymmetrically — see docs/stress.md);
//  - step monitor: invoked at each trace sample; returning false stops the
//    event loop at that sample;
//  - flight recorder: the run is narrated through fluid::StepRecorder, the
//    same narrator the fluid tick loops use, fed from the step monitor with
//    one lane per scope/recorder class. The packet monitor sees only the
//    binding link's congestion loss, not per-flow injected loss, so the
//    per-cohort kInjected lane stays fluid-only.
//
// Every scenario runs on sim::MultiHopNetwork through one path: a
// single-link spec is the one-link topology (dumbbell_topology) with every
// flow routed over link 0, and a topology spec runs its own links. Each link
// is converted to packet units by sim::dumbbell_config_from_link; the step
// length is the smallest route RTT; cohort slots run as independent flows in
// the fluid backend's flow-id order.
#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/backend.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "fluid/step_hooks.h"
#include "recorder/recorder.h"
#include "sim/dumbbell.h"
#include "sim/loss.h"
#include "sim/network.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::engine {
namespace {

long total_slot_senders(const std::vector<SenderSlot>& slots) {
  long total = 0;
  for (const SenderSlot& slot : slots) total += slot.count;
  return total;
}

/// Adapts a fluid::LossInjector (a per-step, per-sender loss rate) to the
/// packet world: each forward packet is dropped with the rate the injector
/// reports for the step containing the current simulation time. The per-flow
/// rate cache is advanced through every intervening step, so stateful
/// injectors (Gilbert-Elliott dwell times) keep their step-level dynamics
/// even when a flow sends nothing for a while.
class InjectedRateLoss final : public sim::PacketFilter {
 public:
  InjectedRateLoss(std::unique_ptr<fluid::LossInjector> injector,
                   const sim::Simulator& simulator, double step_seconds,
                   int num_flows, std::uint64_t seed)
      : injector_(std::move(injector)),
        simulator_(simulator),
        step_seconds_(step_seconds),
        last_step_(static_cast<std::size_t>(num_flows), -1),
        rate_(static_cast<std::size_t>(num_flows), 0.0),
        rng_(seed) {
    AXIOMCC_EXPECTS(injector_ != nullptr);
    AXIOMCC_EXPECTS(step_seconds > 0.0);
    AXIOMCC_EXPECTS(num_flows > 0);
  }

  bool drop(const sim::Packet& p) override {
    const auto flow = static_cast<std::size_t>(p.flow_id);
    AXIOMCC_EXPECTS(flow < rate_.size());
    const long step =
        static_cast<long>(simulator_.now().seconds() / step_seconds_);
    while (last_step_[flow] < step) {
      ++last_step_[flow];
      rate_[flow] = injector_->sample(last_step_[flow], p.flow_id);
    }
    if (rate_[flow] > 0.0 && rng_.bernoulli(rate_[flow])) {
      count_drop();
      return true;
    }
    return false;
  }

 private:
  std::unique_ptr<fluid::LossInjector> injector_;
  const sim::Simulator& simulator_;
  double step_seconds_;
  std::vector<long> last_step_;  ///< per-flow step of the cached rate.
  std::vector<double> rate_;     ///< per-flow cached step loss rate.
  Rng rng_;
};

/// Seeds the per-packet drop stream of InjectedRateLoss. The injector itself
/// is seeded exactly like the fluid backend seeds it
/// (spec.loss.make_injector(spec.seed));
/// the coin flips draw from a separate stream so the two stochastic
/// processes stay independent. The first draw is skipped: it belongs to the
/// simulator's own internal stream.
std::uint64_t filter_seed_for(const ScenarioSpec& spec) {
  std::uint64_t s = spec.seed;
  (void)splitmix64_next(s);
  return splitmix64_next(s);
}

/// The run horizon for `steps` trace samples taken every `step_ms`. The
/// simulator samples at whole multiples of SimTime::from_millis(step_ms) up
/// to SimTime::from_seconds(horizon), and both truncate to nanoseconds, so
/// the plain product can land a nanosecond short of the last sample
/// (0.03 s × 60 truncates to 1 799 999 999 ns) and lose a step. The product
/// is nudged up to the next double only until it reaches that sample.
/// Throws ScenarioError when the horizon in nanoseconds does not fit
/// SimTime, with half its range to spare for that nudge.
double horizon_seconds(double step_ms, long steps) {
  if (!(step_ms * 1e6 * static_cast<double>(steps) < 0x1p62)) {
    throw ScenarioError(std::to_string(steps) + " steps of " +
                        std::to_string(step_ms) +
                        " ms overflow the packet simulator's clock");
  }
  const SimTime last_sample(SimTime::from_millis(step_ms).ns() * steps);
  double seconds = step_ms / 1e3 * static_cast<double>(steps);
  while (SimTime::from_seconds(seconds) < last_sample) {
    seconds = std::nextafter(seconds, std::numeric_limits<double>::infinity());
  }
  return seconds;
}

/// Flattens cohort slots to one slot per member (routed runs observe
/// per-flow, so recorder cohorts and flow ids coincide).
std::vector<SenderSlot> flatten_slots(const std::vector<SenderSlot>& slots) {
  std::vector<SenderSlot> flat;
  flat.reserve(static_cast<std::size_t>(total_slot_senders(slots)));
  for (const SenderSlot& slot : slots) {
    SenderSlot one = slot;
    one.count = 1;
    for (long j = 0; j < slot.count; ++j) flat.push_back(one);
  }
  return flat;
}

}  // namespace

RunTrace PacketBackend::run(const ScenarioSpec& spec) const {
  AXIOMCC_EXPECTS_MSG(!spec.senders.empty(),
                      "scenario needs at least one sender");
  TELEMETRY_SPAN("engine", "packet.run");

  validate_scenario(spec);
  const RunSlots run = make_run_slots(spec);
  const std::vector<SenderSlot>& slots = run.slots;

  // A single-link spec is the one-link topology with every flow routed over
  // link 0. The scope and recorder classes are its sender slots (cohorts),
  // mirroring FluidSimulation's group order; a routed spec runs one flow per
  // cohort member, so its classes are the flattened flows, mirroring
  // FluidSimulation's routed loop. Member j of class g is flow begin(g) + j
  // either way.
  const bool routed = !spec.topology.empty();
  const TopologySpec topology =
      routed ? spec.topology : dumbbell_topology(spec.link);
  std::vector<SenderSlot> classes = routed ? flatten_slots(slots) : slots;
  if (!routed) {
    for (SenderSlot& slot : classes) slot.route = {0};
  }

  // Fluid units -> packet units, link by link. A route's RTT is twice its
  // summed one-way delay.
  std::vector<sim::DumbbellConfig> links;
  for (const fluid::LinkParams& params : topology.links) {
    links.push_back(sim::dumbbell_config_from_link(params, options_.mss_bytes));
  }

  // One trace step = the smallest route RTT, so the fastest control loop
  // gets one sample per round trip (slower flows update less often, exactly
  // as they would on real hardware).
  double step_ms = std::numeric_limits<double>::infinity();
  for (const SenderSlot& slot : classes) {
    double one_way_ms = 0.0;
    for (const int l : slot.route) {
      one_way_ms += links[static_cast<std::size_t>(l)].rtt_ms / 2.0;
    }
    step_ms = std::min(step_ms, 2.0 * one_way_ms);
  }
  const double step_seconds = step_ms / 1e3;

  sim::MultiHopNetwork::Config config;
  config.duration_seconds = horizon_seconds(step_ms, spec.steps);
  config.mss_bytes = options_.mss_bytes;
  config.sample_interval_ms = step_ms;
  config.tail_fraction = spec.tail_fraction;
  config.max_window_mss = std::min(spec.max_window_mss, options_.max_window_mss);

  sim::MultiHopNetwork net(config);
  for (const sim::DumbbellConfig& link : links) {
    net.add_link(link.bottleneck_mbps, link.rtt_ms / 2.0, link.buffer_packets);
  }
  std::vector<int> flow_class;
  for (std::size_t g = 0; g < classes.size(); ++g) {
    const SenderSlot& slot = classes[g];
    AXIOMCC_EXPECTS(slot.prototype != nullptr);
    const double initial =
        std::clamp(slot.initial_window_mss, 1.0, config.max_window_mss);
    const double start_s = slot.start_step * step_seconds;
    const double stop_s =
        slot.stop_step < 0.0 ? -1.0 : slot.stop_step * step_seconds;
    for (long j = 0; j < slot.count; ++j) {
      net.add_flow(slot.prototype->clone(), slot.route, start_s, initial,
                   stop_s);
      flow_class.push_back(static_cast<int>(g));
    }
  }

  if (!spec.loss.empty()) {
    net.set_forward_filter(std::make_unique<InjectedRateLoss>(
        spec.loss.make_injector(spec.seed), net.simulator(), step_seconds,
        net.num_flows(), filter_seed_for(spec)));
  }

  if (!spec.bandwidth_scale.empty() || !spec.rtt_scale.empty()) {
    sim::Simulator& simulator = net.simulator();
    for (long k = 0; k < spec.steps; ++k) {
      const auto t =
          SimTime::from_seconds(static_cast<double>(k) * step_seconds);
      if (!spec.bandwidth_scale.empty()) {
        const double scale = spec.bandwidth_scale.at(k);
        AXIOMCC_EXPECTS_MSG(scale > 0.0, "bandwidth scale must be positive");
        simulator.schedule_at(t, [&net, &links, scale] {
          for (int l = 0; l < net.num_links(); ++l) {
            net.mutable_link(l).set_rate_bps(
                links[static_cast<std::size_t>(l)].bottleneck_mbps * 1e6 *
                scale);
          }
        });
      }
      if (!spec.rtt_scale.empty()) {
        const double scale = spec.rtt_scale.at(k);
        AXIOMCC_EXPECTS_MSG(scale > 0.0, "RTT scale must be positive");
        // The reverse (ACK) path keeps its fixed one-way delay Θ, so each
        // forward link absorbs the whole change: fwd = (scale − ½)·2Θ,
        // floored at 1% of 2Θ so extreme shrink schedules cannot go
        // non-positive (see docs/stress.md).
        const double factor = std::max(scale - 0.5, 0.01);
        simulator.schedule_at(t, [&net, &links, factor] {
          for (int l = 0; l < net.num_links(); ++l) {
            net.mutable_link(l).set_propagation_delay(SimTime::from_seconds(
                factor * (links[static_cast<std::size_t>(l)].rtt_ms / 1e3)));
          }
        });
      }
    }
  }

  // The scope rides the same step-monitor hook as the recorder: the monitor
  // delivers exactly the samples the trace records. The per-flow observed
  // loss is the binding link's congestion loss; per-link channels stay a
  // fluid-network extra — the packet monitor carries no per-link view.
  scope::MetricScope* const scope = spec.scope_sink;
  if (scope != nullptr) {
    double min_capacity = std::numeric_limits<double>::infinity();
    for (const fluid::LinkParams& params : topology.links) {
      min_capacity =
          std::min(min_capacity, fluid::FluidLink(params).capacity_mss());
    }
    scope->resolve(spec.steps, spec.tail_fraction, min_capacity, step_seconds,
                   config.max_window_mss);
    scope->set_recorder(spec.record_sink);
    scope->begin_run(static_cast<int>(classes.size()), /*num_links=*/0);
  }

  if (spec.record_sink != nullptr || scope != nullptr) {
    // Recording rides on the step-monitor hook: emit first, then chain the
    // caller's monitor (the guarded runner installs its checks there). One
    // recorder lane per class; churn intervals round exactly like the fluid
    // backend rounds them.
    std::vector<fluid::StepRecorder::Cohort> lanes;
    long begin = 0;
    for (const SenderSlot& slot : classes) {
      const WholeSteps window = whole_steps(slot);
      lanes.push_back(
          {window.start_step, window.stop_step, slot.count, begin});
      begin += slot.count;
    }
    fluid::StepRecorder srec(
        spec.record_sink, "packet", std::move(lanes), spec.bandwidth_scale,
        spec.rtt_scale, spec.trace_detail == fluid::TraceDetail::kAggregate,
        total_slot_senders(classes));
    const fluid::StepMonitor user = spec.step_monitor;
    net.set_step_monitor([srec = std::move(srec), scope, flow_class, user](
                             long step, std::span<const double> windows,
                             double rtt_seconds,
                             double congestion_loss) mutable {
      double total = 0.0;
      for (const double w : windows) total += w;
      srec.on_step(step, total, rtt_seconds, congestion_loss, windows, {});
      if (scope != nullptr) {
        scope->step_begin(step, total, rtt_seconds, congestion_loss);
        for (std::size_t i = 0; i < windows.size(); ++i) {
          scope->observe_class(flow_class[i], windows[i], congestion_loss);
        }
        scope->step_end();
      }
      return user ? user(step, windows, rtt_seconds, congestion_loss) : true;
    });
  } else if (spec.step_monitor) {
    net.set_step_monitor(spec.step_monitor);
  }

  net.run();
  if (scope != nullptr) scope->finish();

  TELEMETRY_COUNT("engine.packet_runs", 1);
  // The network records full per-flow series internally; an aggregate or
  // last-step request is honoured by reducing post-hoc, so both backends
  // hand the caller the same trace shape.
  fluid::Trace trace = fluid::Trace::reduced(net.trace(), spec.trace_detail,
                                             spec.tracked_senders);
  return RunTrace{std::move(trace), BackendKind::kPacket, net.flow_reports(),
                  net.max_link_utilization()};
}

}  // namespace axiomcc::engine
