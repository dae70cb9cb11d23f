#include "fluid/sim.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cc/batch.h"
#include "fluid/step_hooks.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/repeated_add.h"
#include "util/task_pool.h"

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
  /// RTT aggregation since the last update, shared by all members (they
  /// share churn and update phase).
  double pending_rtt_sum = 0.0;
  long pending_steps = 0;

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

/// One member's update at the end of a step: folds the step's observed loss
/// into its worst loss since its last update and, at a due step, consults
/// its protocol (worst loss, mean RTT) and clamps the window it picks.
void update_member(cc::Protocol& protocol, double& window, double& pending,
                   double seen, bool due, double mean_rtt, double min_w,
                   double max_w) {
  const double worst_loss = std::max(pending, seen);
  if (!due) {
    pending = worst_loss;
    return;
  }
  window = std::clamp(protocol.next_window({window, worst_loss, mean_rtt}),
                      min_w, max_w);
  pending = 0.0;
}

/// Tick and loss tallies, flushed to the registry once after the loop so
/// the hot loop never touches shared metric state. They count simulation
/// content, so they are deterministic at any --jobs.
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
    : link_(link), options_(options), injector_(std::make_unique<NoLoss>()) {
  AXIOMCC_EXPECTS(options.steps > 0);
  AXIOMCC_EXPECTS(options.min_window_mss > 0.0);
  AXIOMCC_EXPECTS(options.max_window_mss > options.min_window_mss);
  AXIOMCC_EXPECTS(options.jobs >= 0);
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
  AXIOMCC_EXPECTS(spec.update_period >= 1);
  AXIOMCC_EXPECTS(spec.update_phase >= 0 &&
                  spec.update_phase < spec.update_period);
  AXIOMCC_EXPECTS(spec.start_step >= 0);
  AXIOMCC_EXPECTS(spec.stop_step < 0 || spec.stop_step > spec.start_step);
  AXIOMCC_EXPECTS(count >= 1);
  AXIOMCC_EXPECTS_MSG(
      total_senders_ + count <= std::numeric_limits<int>::max(),
      "sender population exceeds the index space");
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
  // The scope observes each step from the tick loop's serial section, in
  // ascending (cohort, member) order — the same fold order at any layout
  // or job count. resolve() only adopts fields the caller left unset, so
  // an engine-layer resolve (which knows the tail fraction) wins.
  if (options_.scope_sink != nullptr) {
    options_.scope_sink->resolve(options_.steps, 0.0, link_.capacity_mss(),
                                 link_.min_rtt().value(),
                                 options_.max_window_mss);
    options_.scope_sink->begin_run(static_cast<int>(groups_.size()),
                                   /*num_links=*/0);
  }
  // The scalar loop's shape (see the comment at the top of sim.h).
  const bool scalar =
      !step_monitor_ && options_.scope_sink == nullptr &&
      options_.record_sink == nullptr && injector_->stateless() &&
      std::all_of(groups_.begin(), groups_.end(), [](const SenderGroup& g) {
        return g.count == 1 && g.spec.start_step == 0 && g.spec.stop_step < 0 &&
               g.spec.update_period == 1;
      });
  Trace trace = scalar ? scalar_loop() : tick_loop();
  if (options_.scope_sink != nullptr) options_.scope_sink->finish();
  return trace;
}

Trace FluidSimulation::new_trace() const {
  const int n = num_senders();
  Trace trace =
      options_.trace_detail == TraceDetail::kAggregate
          ? Trace(n, link_.capacity_mss(), link_.min_rtt().value(),
                  TraceDetail::kAggregate,
                  default_tracked_senders(n, options_.tracked_senders))
          : Trace(n, link_.capacity_mss(), link_.min_rtt().value());
  trace.reserve(static_cast<std::size_t>(options_.steps));
  return trace;
}

Trace FluidSimulation::scalar_loop() {
  TELEMETRY_SPAN("fluid", "sim.scalar_loop");
  // Sender i is group i and updates every step: its worst loss since the
  // last update is 0 and its mean RTT is the step's RTT. Trace::add_step's
  // aggregate reduction folds in WindowFold's order.
  Trace trace = new_trace();
  const double min_w = options_.min_window_mss;
  const double max_w = options_.max_window_mss;
  const std::size_t n = groups_.size();
  std::vector<double> windows(n);
  std::vector<double> observed(n);
  for (std::size_t i = 0; i < n; ++i) {
    windows[i] = std::clamp(groups_[i].spec.initial_window_mss, min_w, max_w);
  }
  LoopTelemetry tel;
  detail::ScheduledLink sched({&link_, 1}, bandwidth_scale_, rtt_scale_);
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
    trace.add_step(windows, rtt_value, congestion_loss, observed);
    for (std::size_t i = 0; i < n; ++i) {
      double pending = 0.0;
      update_member(*groups_[i].spec.protocol, windows[i], pending, seen,
                    /*due=*/true, rtt_value, min_w, max_w);
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

  // Fixed-size chunking keeps shard boundaries independent of the job count
  // (docs/parallel.md's determinism contract); every sharded loop is a pure
  // elementwise write to a disjoint range, so results cannot depend on the
  // schedule. One persistent pool serves every step — parallel_map's
  // per-call pool would pay a thread spawn per tick.
  constexpr long kChunk = 16384;
  std::unique_ptr<TaskPool> pool;
  if (slots >= 2 * kChunk) {
    const long jobs = resolve_jobs(options_.jobs);
    if (jobs > 1) pool = std::make_unique<TaskPool>(static_cast<int>(jobs));
  }
  const auto for_range = [&pool](long lo, long hi, const auto& body) {
    if (pool == nullptr || hi - lo < 2 * kChunk) {
      body(lo, hi);
      return;
    }
    for (long c0 = lo; c0 < hi; c0 += kChunk) {
      const long c1 = std::min(hi, c0 + kChunk);
      pool->submit([&body, c0, c1] { body(c0, c1); });
    }
    pool->wait_idle();
  };

  Trace trace = new_trace();

  const double min_w = options_.min_window_mss;
  const double max_w = options_.max_window_mss;
  // Per-slot step state. Inactive members hold window, observed loss and
  // pending loss at exactly 0 (zeroed at the leave transition).
  std::vector<double> windows(static_cast<std::size_t>(slots), 0.0);
  std::vector<double> observed(static_cast<std::size_t>(slots), 0.0);
  std::vector<double> pending_max(static_cast<std::size_t>(slots), 0.0);
  // Kernel staging: the RTT input broadcast and the unclamped output (a
  // kernel may reread its window input after writing out, so it cannot
  // update in place).
  std::vector<double> kernel_rtt(any_kernel ? slots : 0);
  std::vector<double> kernel_out(any_kernel ? slots : 0);
  // The arrays never resize; plain pointers (windows, pending worst loss,
  // the loss each member has seen this step) spare the per-member update
  // reloading them after every virtual call, and keep the vectors from
  // escaping into the pool's tasks.
  double* const win = windows.data();
  double* const pend = pending_max.data();
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
  detail::ScheduledLink sched({&link_, 1}, bandwidth_scale_, rtt_scale_);
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
        std::fill_n(pend + c.slot, c.width, 0.0);
        c.pending_rtt_sum = 0.0;
        c.pending_steps = 0;
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

    // Window update. Each member aggregates its observations since its last
    // update (worst loss, mean RTT) and consults its protocol at due steps,
    // holding its window in between; due-ness is uniform across a cohort.
    // Every-step updates see a mean RTT of (0 + rtt) / 1 == rtt, bitwise, so
    // they skip the RTT bookkeeping and its division.
    for (Cohort& c : cohorts) {
      if (!c.active) continue;
      const long period = c.spec->update_period;
      const bool due = period == 1 || step % period == c.spec->update_phase;
      double mean_rtt = rtt_value;
      if (period != 1) {
        c.pending_rtt_sum += rtt_value;
        ++c.pending_steps;
        if (due) {
          mean_rtt = c.pending_rtt_sum / static_cast<double>(c.pending_steps);
          c.pending_rtt_sum = 0.0;
          c.pending_steps = 0;
        }
      }
      if (c.kernel == nullptr) {
        // Per-member dispatch, serial.
        for (long i = c.slot; i < c.slot + c.width; ++i) {
          update_member(*c.members[static_cast<std::size_t>(i - c.slot)],
                        win[i], pend[i], seen[i], due, mean_rtt, min_w, max_w);
        }
      } else {
        for_range(c.slot, c.slot + c.width,
                  [&c, &kernel_rtt, &kernel_out, win, pend, seen, due,
                   mean_rtt, min_w, max_w](long lo, long hi) {
          for (long i = lo; i < hi; ++i) pend[i] = std::max(pend[i], seen[i]);
          if (!due) return;
          const auto len = static_cast<std::size_t>(hi - lo);
          std::fill(kernel_rtt.begin() + lo, kernel_rtt.begin() + hi, mean_rtt);
          c.kernel->next_window_batch(
              std::span<const double>(win + lo, len),
              std::span<const double>(pend + lo, len),
              std::span<const double>(kernel_rtt.data() + lo, len),
              std::span<double>(c.state).subspan(
                  static_cast<std::size_t>((lo - c.slot) * c.state_size),
                  len * static_cast<std::size_t>(c.state_size)),
              std::span<double>(kernel_out.data() + lo, len));
          for (long i = lo; i < hi; ++i) {
            win[i] = std::clamp(kernel_out[i], min_w, max_w);
            pend[i] = 0.0;
          }
        });
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

Trace run_homogeneous(const LinkParams& link, const cc::Protocol& prototype,
                      int n, double initial_window_mss,
                      const SimOptions& options) {
  AXIOMCC_EXPECTS(n > 0);
  FluidSimulation sim(link, options);
  sim.add_senders(prototype, n, initial_window_mss);
  return sim.run();
}

}  // namespace axiomcc::fluid
