#include "fluid/sim.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cc/batch.h"
#include "fluid/step_hooks.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/repeated_add.h"

namespace axiomcc::fluid {

namespace {

/// One sender group's execution state. A cohort stores `width` members —
/// all `count` of them (materialized), or one representative standing in
/// for `count` bitwise-identical members (uniform) — in slots
/// [slot, slot + width) of the per-step arrays.
struct Cohort {
  const SenderSpec* spec = nullptr;
  long begin = 0;  ///< first global sender id.
  long count = 0;
  long slot = 0;
  long width = 0;
  bool active = false;
  /// Materialized multi-member cohorts of a batchable family advance
  /// through the SoA kernel; all others dispatch per member.
  const cc::BatchProtocol* kernel = nullptr;
  int state_size = 0;
  std::vector<double> state;           ///< kernel state, member-major.
  std::vector<cc::Protocol*> members;  ///< per-member dispatch otherwise.

  [[nodiscard]] bool active_at(long step) const {
    return step >= spec->start_step &&
           (spec->stop_step < 0 || step < spec->stop_step);
  }
};

/// The aggregate-window fold of one step, plus the population statistics
/// an aggregate trace keeps (over active members). The fold is SERIAL and
/// ascending, member by member: float addition is not associative, so a
/// representative of `count` members adds its window `count` times rather
/// than multiplying — repeated_add returns the bits of those adds in
/// O(binades crossed).
struct WindowFold {
  double total = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  long active = 0;

  void add(double w, long count) {
    total = repeated_add(total, w, count);
    if (w > 0.0) {
      active += count;
      min = std::min(min, w);
      max = std::max(max, w);
    }
  }
};

/// One member's update at the end of a step: consults its protocol with the
/// step's observed loss and RTT and clamps the window it picks.
void update_member(cc::Protocol& protocol, double& window, double seen,
                   double rtt, double min_w, double max_w) {
  window = std::clamp(protocol.next_window({window, seen, rtt}), min_w, max_w);
}

/// Tick and loss tallies, flushed to the registry once after the loop so
/// the hot loop never touches shared metric state. They count simulation
/// content, so they are deterministic.
struct LoopTelemetry {
  bool on = telemetry::enabled();
  long ticks = 0;
  long loss_event_steps = 0;
  long injected_loss_samples = 0;

  void tick(double congestion_loss) {
    if (!on) return;
    ++ticks;
    if (congestion_loss > 0.0) ++loss_event_steps;
  }

  /// `count` senders observed injected loss `rate` this step.
  void injected(double rate, long count) {
    if (on && rate > 0.0) injected_loss_samples += count;
  }

  void flush() const {
    if (!on) return;
    TELEMETRY_COUNT("fluid.ticks", ticks);
    TELEMETRY_COUNT("fluid.loss_event_steps", loss_event_steps);
    TELEMETRY_COUNT("fluid.injected_loss_samples", injected_loss_samples);
  }
};

}  // namespace

FluidSimulation::FluidSimulation(const LinkParams& link, SimOptions options)
    : FluidSimulation(std::vector<LinkParams>{link}, options) {}

FluidSimulation::FluidSimulation(const std::vector<LinkParams>& links,
                                 SimOptions options)
    : links_(links.begin(), links.end()),
      options_(options),
      injector_(std::make_unique<NoLoss>()) {
  AXIOMCC_EXPECTS_MSG(!links.empty(), "a run needs at least one link");
  AXIOMCC_EXPECTS(options.steps > 0);
  AXIOMCC_EXPECTS(options.min_window_mss > 0.0);
  AXIOMCC_EXPECTS(options.max_window_mss > options.min_window_mss);
  if (options.trace_detail == TraceDetail::kAggregate) {
    AXIOMCC_EXPECTS(options.tracked_senders > 0);
  }
}

void FluidSimulation::add_sender(const cc::Protocol& prototype,
                                 double initial_window_mss) {
  add_sender(SenderSpec{prototype.clone(), initial_window_mss});
}

void FluidSimulation::add_sender(SenderSpec spec) {
  add_senders(std::move(spec), 1);
}

void FluidSimulation::add_senders(SenderSpec spec, long count) {
  AXIOMCC_EXPECTS(spec.protocol != nullptr);
  AXIOMCC_EXPECTS(spec.initial_window_mss >= 0.0);
  AXIOMCC_EXPECTS(spec.start_step >= 0);
  AXIOMCC_EXPECTS(spec.stop_step < 0 || spec.stop_step > spec.start_step);
  AXIOMCC_EXPECTS(count >= 1);
  AXIOMCC_EXPECTS_MSG(
      total_senders_ + count <= std::numeric_limits<int>::max(),
      "sender population exceeds the index space");
  AXIOMCC_EXPECTS_MSG(groups_.empty() || spec.route.empty() ==
                                             groups_.front().spec.route.empty(),
                      "a run has routes on every sender or on none");
  AXIOMCC_EXPECTS_MSG(!spec.route.empty() || links_.size() == 1,
                      "a sender on a multi-link run needs a route");
  for (auto l = spec.route.begin(); l != spec.route.end(); ++l) {
    AXIOMCC_EXPECTS_MSG(*l >= 0 && static_cast<std::size_t>(*l) < links_.size(),
                        "route names an unknown link id");
    AXIOMCC_EXPECTS_MSG(std::find(spec.route.begin(), l, *l) == l,
                        "a route may cross each link once");
  }
  groups_.push_back(SenderGroup{std::move(spec), count});
  total_senders_ += count;
}

void FluidSimulation::add_senders(const cc::Protocol& prototype, long count,
                                  double initial_window_mss) {
  add_senders(SenderSpec{prototype.clone(), initial_window_mss}, count);
}

void FluidSimulation::set_loss_injector(std::unique_ptr<LossInjector> injector) {
  AXIOMCC_EXPECTS(injector != nullptr);
  injector_ = std::move(injector);
}

void FluidSimulation::set_bandwidth_schedule(Schedule scale) {
  bandwidth_scale_ = std::move(scale);
}

void FluidSimulation::set_rtt_schedule(Schedule scale) {
  rtt_scale_ = std::move(scale);
}

void FluidSimulation::set_step_monitor(StepMonitor monitor) {
  AXIOMCC_EXPECTS(monitor != nullptr);
  step_monitor_ = std::move(monitor);
}

Trace FluidSimulation::run() {
  AXIOMCC_EXPECTS_MSG(!groups_.empty(), "add at least one sender before run()");
  AXIOMCC_EXPECTS_MSG(!ran_, "FluidSimulation::run may be called only once");
  ran_ = true;
  TELEMETRY_SPAN("fluid", "sim.run");
  const bool routed = !groups_.front().spec.route.empty();
  // Trace geometry: the smallest link capacity on any route and the
  // smallest route RTT (a single-link run's one route is the link itself).
  static constexpr int kOnlyLink[] = {0};
  for (const SenderGroup& g : groups_) {
    double route_rtt = 0.0;
    for (const int l : routed ? std::span<const int>(g.spec.route)
                              : std::span<const int>(kOnlyLink)) {
      capacity_mss_ = std::min(capacity_mss_, links_[l].capacity_mss());
      route_rtt += links_[l].min_rtt().value();
    }
    min_rtt_seconds_ = std::min(min_rtt_seconds_, route_rtt);
  }
  // The scope's classes are the sender groups, or the flows of a routed
  // run, which also feeds it every link. resolve() only adopts fields the
  // caller left unset, so an engine-layer resolve (which knows the tail
  // fraction) wins.
  if (options_.scope_sink != nullptr) {
    options_.scope_sink->resolve(options_.steps, 0.0, capacity_mss_,
                                 min_rtt_seconds_, options_.max_window_mss);
    options_.scope_sink->begin_run(
        routed ? num_senders() : static_cast<int>(groups_.size()),
        routed ? static_cast<int>(links_.size()) : 0);
  }
  // The scalar loop's shape (see the comment at the top of sim.h).
  const bool scalar =
      !routed && !step_monitor_ && options_.scope_sink == nullptr &&
      options_.record_sink == nullptr && injector_->stateless() &&
      std::all_of(groups_.begin(), groups_.end(), [](const SenderGroup& g) {
        return g.count == 1 && g.spec.start_step == 0 && g.spec.stop_step < 0;
      });
  Trace trace = routed ? routed_loop() : scalar ? scalar_loop() : tick_loop();
  if (options_.scope_sink != nullptr) options_.scope_sink->finish();
  return trace;
}

Trace FluidSimulation::new_trace() const {
  const int n = num_senders();
  const TraceDetail detail = options_.trace_detail;
  Trace trace(n, capacity_mss_, min_rtt_seconds_, detail,
              detail == TraceDetail::kAggregate
                  ? default_tracked_senders(n, options_.tracked_senders)
                  : std::vector<int>{});
  trace.reserve(static_cast<std::size_t>(options_.steps));
  return trace;
}

Trace FluidSimulation::scalar_loop() {
  TELEMETRY_SPAN("fluid", "sim.scalar_loop");
  // Sender i is group i. Trace::add_step's aggregate reduction folds in
  // WindowFold's order. This loop never stops early, so a last-step trace
  // skips the out-of-line append until the final step instead of
  // overwriting every step.
  Trace trace = new_trace();
  const long first_recorded =
      options_.trace_detail == TraceDetail::kLast ? options_.steps - 1 : 0;
  const double min_w = options_.min_window_mss;
  const double max_w = options_.max_window_mss;
  const std::size_t n = groups_.size();
  std::vector<double> windows(n);
  std::vector<double> observed(n);
  for (std::size_t i = 0; i < n; ++i) {
    windows[i] = std::clamp(groups_[i].spec.initial_window_mss, min_w, max_w);
  }
  LoopTelemetry tel;
  detail::ScheduledLink sched(links_, bandwidth_scale_, rtt_scale_);
  for (long step = 0; step < options_.steps; ++step) {
    WindowFold fold;
    for (const double w : windows) fold.add(w, 1);
    const FluidLink& active_link = sched.at(step).front();
    const double congestion_loss = active_link.loss_rate(fold.total);
    const double rtt_value = active_link.rtt(fold.total).value();
    const double injected = injector_->sample(step, 0);
    const double seen = combine_loss(congestion_loss, injected);
    std::fill(observed.begin(), observed.end(), seen);
    tel.injected(injected, static_cast<long>(n));
    tel.tick(congestion_loss);
    if (step >= first_recorded) {
      trace.add_step(windows, rtt_value, congestion_loss, observed);
    }
    for (std::size_t i = 0; i < n; ++i) {
      update_member(*groups_[i].spec.protocol, windows[i], seen, rtt_value,
                    min_w, max_w);
    }
  }
  tel.flush();
  return trace;
}

Trace FluidSimulation::tick_loop() {
  TELEMETRY_SPAN("fluid", "sim.tick_loop");
  const bool aggregate = options_.trace_detail == TraceDetail::kAggregate;
  const bool stateless_loss = injector_->stateless();
  // A homogeneous cohort whose members all see the same inputs every step —
  // shared spec, shared schedules, and a per-step-uniform (stateless) loss
  // injector — provably stays uniform: every member's window is bitwise
  // identical forever, so one representative advances for the whole cohort
  // and per-sender work drops to O(cohorts) per step. Full-detail traces and
  // the step monitor need every member's window, so those materialize.
  const bool uniform = aggregate && !step_monitor_ && stateless_loss;

  std::vector<std::unique_ptr<cc::Protocol>> owned;
  std::vector<Cohort> cohorts;
  std::vector<StepRecorder::Cohort> lanes;
  cohorts.reserve(groups_.size());
  long begin = 0;
  long slots = 0;
  bool any_kernel = false;
  for (const SenderGroup& group : groups_) {
    Cohort c;
    c.spec = &group.spec;
    c.begin = begin;
    c.count = group.count;
    c.slot = slots;
    c.width = uniform ? 1 : group.count;
    begin += c.count;
    slots += c.width;
    if (c.width > 1) c.kernel = group.spec.protocol->batch_kernel();
    if (c.kernel != nullptr) {
      any_kernel = true;
      c.state_size = c.kernel->state_size();
      c.state.resize(static_cast<std::size_t>(c.width * c.state_size));
      for (long j = 0; c.state_size > 0 && j < c.width; ++j) {
        c.kernel->init_state(std::span<double>(c.state).subspan(
            static_cast<std::size_t>(j * c.state_size),
            static_cast<std::size_t>(c.state_size)));
      }
    } else if (c.count == 1) {
      c.members.push_back(group.spec.protocol.get());
    } else {
      // Members start as identical clones of the prototype (protocols are
      // deterministic in their state and observations), so a uniform
      // representative needs just one.
      for (long j = 0; j < c.width; ++j) {
        owned.push_back(group.spec.protocol->clone());
        c.members.push_back(owned.back().get());
      }
    }
    lanes.push_back({group.spec.start_step, group.spec.stop_step, c.count,
                     c.slot});
    cohorts.push_back(std::move(c));
  }

  Trace trace = new_trace();

  const double min_w = options_.min_window_mss;
  const double max_w = options_.max_window_mss;
  // Per-slot step state. Inactive members hold window and observed loss at
  // exactly 0 (zeroed at the leave transition).
  std::vector<double> windows(static_cast<std::size_t>(slots), 0.0);
  std::vector<double> observed(static_cast<std::size_t>(slots), 0.0);
  // Kernel staging: the RTT input broadcast and the unclamped output (a
  // kernel may reread its window input after writing out, so it cannot
  // update in place).
  std::vector<double> kernel_rtt(any_kernel ? slots : 0);
  std::vector<double> kernel_out(any_kernel ? slots : 0);
  // The arrays never resize; plain pointers (windows, the loss each member
  // has seen this step) spare the per-member update reloading them after
  // every virtual call.
  double* const win = windows.data();
  double* const seen = observed.data();
  for (Cohort& c : cohorts) {
    c.active = c.active_at(0);
    if (c.active) {
      std::fill_n(win + c.slot, c.width,
                  std::clamp(c.spec->initial_window_mss, min_w, max_w));
    }
  }

  // Aggregate traces keep only the tracked senders' series: map each
  // tracked id to its slot once (ids and cohort ranges both ascend).
  std::vector<std::size_t> tracked_slots;
  if (aggregate) {
    std::size_t ci = 0;
    for (const int id : trace.tracked_senders()) {
      while (id >= cohorts[ci].begin + cohorts[ci].count) ++ci;
      const Cohort& c = cohorts[ci];
      tracked_slots.push_back(static_cast<std::size_t>(
          c.slot + (c.width == c.count ? id - c.begin : 0)));
    }
  }
  std::vector<double> tracked_w(tracked_slots.size());
  std::vector<double> tracked_obs(tracked_slots.size());

  LoopTelemetry tel;
  detail::ScheduledLink sched(links_, bandwidth_scale_, rtt_scale_);
  StepRecorder srec(options_.record_sink, "fluid", std::move(lanes),
                    bandwidth_scale_, rtt_scale_, aggregate, num_senders());
  for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
    srec.cohort_mode(ci, uniform ? recorder::EventCode::kUniform
                         : cohorts[ci].kernel != nullptr
                             ? recorder::EventCode::kKernel
                             : recorder::EventCode::kFallback);
  }

  for (long step = 0; step < options_.steps; ++step) {
    // Churn: a joining cohort restarts from its initial window; a departing
    // one stops contributing immediately. Activity is uniform within a
    // cohort, so the O(width) fills run only at join/leave steps.
    for (Cohort& c : cohorts) {
      const bool active = c.active_at(step);
      if (!active && c.active) {
        std::fill_n(win + c.slot, c.width, 0.0);
        std::fill_n(seen + c.slot, c.width, 0.0);
      } else if (active && step == c.spec->start_step && step != 0) {
        std::fill_n(win + c.slot, c.width,
                    std::clamp(c.spec->initial_window_mss, min_w, max_w));
      }
      c.active = active;
    }

    WindowFold fold;
    for (long s = 0; s < slots; ++s) {
      fold.add(win[s], uniform ? cohorts[s].count : 1);
    }
    const double total = fold.total;

    const FluidLink& active_link = sched.at(step).front();
    const double congestion_loss = active_link.loss_rate(total);
    const double rtt_value = active_link.rtt(total).value();

    // Loss observation. A stateless injector yields one value per step, so
    // it is sampled once; a stateful one must see every active sender in
    // ascending order (such runs always materialize).
    const double shared_injected =
        stateless_loss ? injector_->sample(step, 0) : 0.0;
    const double shared_observed =
        combine_loss(congestion_loss, shared_injected);
    for (const Cohort& c : cohorts) {
      if (!c.active) continue;
      if (stateless_loss) {
        std::fill_n(seen + c.slot, c.width, shared_observed);
        tel.injected(shared_injected, c.count);
        continue;
      }
      for (long j = 0; j < c.width; ++j) {
        const double injected =
            injector_->sample(step, static_cast<int>(c.begin + j));
        seen[c.slot + j] = combine_loss(congestion_loss, injected);
        tel.injected(injected, 1);
      }
    }
    tel.tick(congestion_loss);

    if (aggregate) {
      for (std::size_t j = 0; j < tracked_slots.size(); ++j) {
        tracked_w[j] = win[tracked_slots[j]];
        tracked_obs[j] = seen[tracked_slots[j]];
      }
      trace.add_step_aggregate_tracked(total, fold.min, fold.max, fold.active,
                                       rtt_value, congestion_loss, tracked_w,
                                       tracked_obs);
    } else {
      trace.add_step(windows, rtt_value, congestion_loss, observed);
    }
    srec.on_step(step, total, rtt_value, congestion_loss, windows, observed);
    if (scope::MetricScope* scope = options_.scope_sink; scope != nullptr) {
      // A representative observes once with its member count; the scope
      // folds that as `count` repeated adds, matching member-by-member.
      scope->step_begin(step, total, rtt_value, congestion_loss);
      for (std::size_t ci = 0; ci < cohorts.size(); ++ci) {
        const Cohort& c = cohorts[ci];
        for (long s = c.slot; s < c.slot + c.width; ++s) {
          scope->observe_class(static_cast<int>(ci), win[s], seen[s],
                               uniform ? c.count : 1);
        }
      }
      scope->step_end();
    }

    // Window update: every active member consults its protocol with the
    // loss it saw and the step's RTT, one serial pass in slot order.
    for (Cohort& c : cohorts) {
      if (!c.active) continue;
      if (c.kernel == nullptr) {
        for (long i = c.slot; i < c.slot + c.width; ++i) {
          update_member(*c.members[static_cast<std::size_t>(i - c.slot)],
                        win[i], seen[i], rtt_value, min_w, max_w);
        }
        continue;
      }
      const auto lo = static_cast<std::size_t>(c.slot);
      const auto len = static_cast<std::size_t>(c.width);
      std::fill_n(kernel_rtt.begin() + c.slot, c.width, rtt_value);
      c.kernel->next_window_batch(
          std::span<const double>(win + lo, len),
          std::span<const double>(seen + lo, len),
          std::span<const double>(kernel_rtt.data() + lo, len),
          std::span<double>(c.state),
          std::span<double>(kernel_out.data() + lo, len));
      for (std::size_t i = lo; i < lo + len; ++i) {
        win[i] = std::clamp(kernel_out[i], min_w, max_w);
      }
    }

    // The monitor sees the windows the senders just chose for the NEXT step,
    // before the link consumes them — a diverging protocol (NaN, blowup) is
    // caught here rather than exploding inside the link's preconditions.
    if (step_monitor_ &&
        !step_monitor_(step, windows, rtt_value, congestion_loss)) {
      break;
    }
  }
  tel.flush();
  return trace;
}

Trace FluidSimulation::routed_loop() {
  TELEMETRY_SPAN("fluid", "sim.routed_loop");
  // One flow per cohort member, each with its own protocol; flow ids are
  // sender ids (slot order, then member order).
  struct Flow {
    const SenderSpec* spec;
    cc::Protocol* protocol;
  };
  std::vector<std::unique_ptr<cc::Protocol>> owned;
  std::vector<Flow> flows;
  for (const SenderGroup& group : groups_) {
    for (long j = 0; j < group.count; ++j) {
      cc::Protocol* protocol = group.spec.protocol.get();
      if (group.count > 1) {
        owned.push_back(protocol->clone());
        protocol = owned.back().get();
      }
      flows.push_back({&group.spec, protocol});
    }
  }
  const int nf = num_senders();
  const int nl = static_cast<int>(links_.size());
  const bool aggregate = options_.trace_detail == TraceDetail::kAggregate;
  Trace trace = new_trace();

  const auto clamp_window = [&](double w) {
    return std::clamp(w, options_.min_window_mss, options_.max_window_mss);
  };
  const auto active_at = [](const Flow& f, long step) {
    return step >= f.spec->start_step &&
           (f.spec->stop_step < 0 || step < f.spec->stop_step);
  };

  std::vector<double> windows(nf);
  for (int f = 0; f < nf; ++f) {
    windows[f] = active_at(flows[f], 0)
                     ? clamp_window(flows[f].spec->initial_window_mss)
                     : 0.0;
  }

  std::vector<double> link_loss(nl, 0.0);
  std::vector<double> arrivals(nl, 0.0);
  std::vector<double> flow_loss(nf);
  std::vector<double> observed_loss(nf);
  std::vector<double> flow_rtt(nf);
  std::vector<double> next_windows(nf);

  detail::ScheduledLink sched(links_, bandwidth_scale_, rtt_scale_);
  // Each flow is its own count-1 recorder lane, so lane ids are flow ids
  // and the packet backend's routed recordings step-align.
  std::vector<StepRecorder::Cohort> lanes;
  for (int f = 0; f < nf; ++f) {
    const SenderSpec& spec = *flows[f].spec;
    lanes.push_back({spec.start_step, spec.stop_step, 1, f});
  }
  StepRecorder srec(options_.record_sink, "fluid", std::move(lanes),
                    bandwidth_scale_, rtt_scale_, aggregate, nf);
  scope::MetricScope* scope = options_.scope_sink;

  for (long step = 0; step < options_.steps; ++step) {
    // Churn: flows joining at this step restart from their initial window;
    // departed flows stop contributing immediately.
    for (int f = 0; f < nf; ++f) {
      const SenderSpec& spec = *flows[f].spec;
      if (!active_at(flows[f], step)) {
        windows[f] = 0.0;
      } else if (step == spec.start_step && step != 0) {
        windows[f] = clamp_window(spec.initial_window_mss);
      }
    }

    const std::span<const FluidLink> active_links = sched.at(step);

    // Fixed-point iteration for consistent carried loads: upstream loss
    // thins downstream arrivals, and arrivals determine loss. A round fixes
    // the loss of every link whose upstream links were fixed the round
    // before, so an acyclic route set settles one hop per round, within
    // `nl` rounds, and the round after changes no loss. A cyclic one need
    // not settle exactly and stops at the nl + 1 cap. A step with no lossy
    // link stops after one round.
    std::fill(link_loss.begin(), link_loss.end(), 0.0);
    for (int round = 0; round <= nl; ++round) {
      std::fill(arrivals.begin(), arrivals.end(), 0.0);
      for (int f = 0; f < nf; ++f) {
        double carried = windows[f];
        for (int l : flows[f].spec->route) {
          arrivals[l] += carried;
          carried *= 1.0 - link_loss[l];
        }
      }
      bool changed = false;
      for (int l = 0; l < nl; ++l) {
        const double loss = active_links[l].loss_rate(arrivals[l]);
        changed |= loss != link_loss[l];
        link_loss[l] = loss;
      }
      if (!changed) break;
    }

    // Per-flow observations: loss composes, delay adds, across the route;
    // injected (non-congestion) loss composes on top, exactly like the
    // single-link model.
    double max_link_loss = 0.0;
    for (double loss : link_loss) max_link_loss = std::max(max_link_loss, loss);
    double total = 0.0;
    for (double w : windows) total += w;
    double rtt_sum = 0.0;
    int rtt_count = 0;
    for (int f = 0; f < nf; ++f) {
      if (!active_at(flows[f], step)) {
        flow_loss[f] = 0.0;
        observed_loss[f] = 0.0;
        flow_rtt[f] = 0.0;
        continue;
      }
      double survive = 1.0;
      double rtt = 0.0;
      for (int l : flows[f].spec->route) {
        survive *= 1.0 - link_loss[l];
        rtt += active_links[l].rtt(arrivals[l]).value();
      }
      flow_loss[f] = 1.0 - survive;
      const double injected = injector_->sample(step, f);
      observed_loss[f] = combine_loss(flow_loss[f], injected);
      flow_rtt[f] = rtt;
      rtt_sum += rtt;
      ++rtt_count;
    }
    const double mean_rtt = rtt_count > 0
                                ? rtt_sum / static_cast<double>(rtt_count)
                                : min_rtt_seconds_;

    trace.add_step(windows, mean_rtt, max_link_loss, observed_loss);
    srec.on_step(step, total, mean_rtt, max_link_loss, windows, observed_loss);
    if (scope != nullptr) {
      scope->step_begin(step, total, mean_rtt, max_link_loss);
      for (int f = 0; f < nf; ++f) {
        scope->observe_class(f, windows[f], observed_loss[f]);
      }
      for (int l = 0; l < nl; ++l) {
        // Per-link view: utilization against the step's (scheduled)
        // capacity, the link's own droptail loss, and the loaded/zero-load
        // RTT ratio against the CONFIGURED link so RTT schedules register
        // as latency inflation.
        const double base_rtt = links_[l].min_rtt().value();
        const double rtt_ratio =
            base_rtt > 0.0
                ? active_links[l].rtt(arrivals[l]).value() / base_rtt
                : 1.0;
        scope->observe_link(
            l, std::min(1.0, arrivals[l] / active_links[l].capacity_mss()),
            link_loss[l], rtt_ratio);
      }
      scope->step_end();
    }

    for (int f = 0; f < nf; ++f) {
      if (!active_at(flows[f], step)) {
        next_windows[f] = 0.0;
        continue;
      }
      const cc::Observation obs{windows[f], observed_loss[f], flow_rtt[f]};
      next_windows[f] = clamp_window(flows[f].protocol->next_window(obs));
    }
    windows.swap(next_windows);

    // The monitor sees the windows the flows just chose for the NEXT step,
    // as in the tick loop.
    if (step_monitor_ &&
        !step_monitor_(step, windows, mean_rtt, max_link_loss)) {
      break;
    }
  }
  return trace;
}

Trace run_homogeneous(const LinkParams& link, const cc::Protocol& prototype,
                      int n, double initial_window_mss,
                      const SimOptions& options) {
  AXIOMCC_EXPECTS(n > 0);
  FluidSimulation sim(link, options);
  sim.add_senders(prototype, n, initial_window_mss);
  return sim.run();
}

}  // namespace axiomcc::fluid
