#include "fluid/network.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "fluid/step_hooks.h"
#include "util/check.h"

namespace axiomcc::fluid {

FluidNetwork::FluidNetwork(Options options)
    : options_(options), injector_(std::make_unique<NoLoss>()) {
  AXIOMCC_EXPECTS(options.steps > 0);
  AXIOMCC_EXPECTS(options.min_window_mss > 0.0);
  AXIOMCC_EXPECTS(options.max_window_mss > options.min_window_mss);
  if (options.trace_detail == TraceDetail::kAggregate) {
    AXIOMCC_EXPECTS(options.tracked_senders > 0);
  }
}

int FluidNetwork::add_link(const LinkParams& params) {
  AXIOMCC_EXPECTS_MSG(!ran_, "add_link must precede run()");
  links_.emplace_back(params);
  return num_links() - 1;
}

int FluidNetwork::add_flow(std::unique_ptr<cc::Protocol> protocol,
                           std::vector<int> route, double initial_window_mss) {
  return add_flow(
      FlowSpec{std::move(protocol), std::move(route), initial_window_mss});
}

int FluidNetwork::add_flow(FlowSpec spec) {
  AXIOMCC_EXPECTS_MSG(!ran_, "add_flow must precede run()");
  AXIOMCC_EXPECTS(spec.protocol != nullptr);
  AXIOMCC_EXPECTS_MSG(!spec.route.empty(),
                      "a flow must traverse at least one link");
  for (int link_id : spec.route) {
    AXIOMCC_EXPECTS(link_id >= 0 && link_id < num_links());
  }
  AXIOMCC_EXPECTS(spec.initial_window_mss >= 0.0);
  AXIOMCC_EXPECTS(spec.start_step >= 0);
  AXIOMCC_EXPECTS(spec.stop_step < 0 || spec.stop_step > spec.start_step);
  flows_.push_back(std::move(spec));
  return num_flows() - 1;
}

void FluidNetwork::set_loss_injector(std::unique_ptr<LossInjector> injector) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_loss_injector must precede run()");
  AXIOMCC_EXPECTS(injector != nullptr);
  injector_ = std::move(injector);
}

void FluidNetwork::set_bandwidth_schedule(Schedule scale) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_bandwidth_schedule must precede run()");
  bandwidth_scale_ = std::move(scale);
}

void FluidNetwork::set_rtt_schedule(Schedule scale) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_rtt_schedule must precede run()");
  rtt_scale_ = std::move(scale);
}

void FluidNetwork::set_step_monitor(StepMonitor monitor) {
  AXIOMCC_EXPECTS_MSG(!ran_, "set_step_monitor must precede run()");
  AXIOMCC_EXPECTS(monitor != nullptr);
  step_monitor_ = std::move(monitor);
}

const FluidLink& FluidNetwork::link(int id) const {
  AXIOMCC_EXPECTS(id >= 0 && id < num_links());
  return links_[id];
}

Trace FluidNetwork::run() {
  AXIOMCC_EXPECTS_MSG(!ran_, "run() may be called only once");
  AXIOMCC_EXPECTS_MSG(!flows_.empty(), "add at least one flow before run()");
  ran_ = true;

  const int nf = num_flows();
  const int nl = num_links();

  // Trace conventions (see header): capacity = min link capacity on any
  // route; min-RTT = smallest route floor.
  double min_capacity = std::numeric_limits<double>::infinity();
  double min_route_rtt = std::numeric_limits<double>::infinity();
  for (const FlowSpec& f : flows_) {
    double route_rtt = 0.0;
    for (int l : f.route) {
      min_capacity = std::min(min_capacity, links_[l].capacity_mss());
      route_rtt += links_[l].min_rtt().value();
    }
    min_route_rtt = std::min(min_route_rtt, route_rtt);
  }

  const bool aggregate = options_.trace_detail == TraceDetail::kAggregate;
  Trace trace(nf, min_capacity, min_route_rtt, options_.trace_detail,
              aggregate ? default_tracked_senders(nf, options_.tracked_senders)
                        : std::vector<int>{});
  trace.reserve(static_cast<std::size_t>(options_.steps));

  const auto clamp_window = [&](double w) {
    return std::clamp(w, options_.min_window_mss, options_.max_window_mss);
  };
  const auto active_at = [](const FlowSpec& f, long step) {
    return step >= f.start_step && (f.stop_step < 0 || step < f.stop_step);
  };

  std::vector<double> windows(nf);
  for (int f = 0; f < nf; ++f) {
    windows[f] = active_at(flows_[f], 0)
                     ? clamp_window(flows_[f].initial_window_mss)
                     : 0.0;
  }

  std::vector<double> link_loss(nl, 0.0);
  std::vector<double> arrivals(nl, 0.0);
  std::vector<double> utilization_sum(nl, 0.0);
  std::vector<double> flow_loss(nf);
  std::vector<double> observed_loss(nf);
  std::vector<double> flow_rtt(nf);
  std::vector<double> next_windows(nf);

  detail::ScheduledLink sched(links_, bandwidth_scale_, rtt_scale_);
  // Each flow is its own count-1 cohort: the engine's topology path
  // flattens sender slots to per-flow order on both backends, so cohort id
  // == flow id and the two backends' recordings step-align.
  std::vector<StepRecorder::Cohort> lanes;
  for (int f = 0; f < nf; ++f) {
    lanes.push_back({flows_[f].start_step, flows_[f].stop_step, 1, f});
  }
  StepRecorder srec(options_.record_sink, "fluid", std::move(lanes),
                    bandwidth_scale_, rtt_scale_, aggregate, nf);
  scope::MetricScope* scope = options_.scope_sink;
  if (scope != nullptr) {
    scope->resolve(options_.steps, 0.0, min_capacity, min_route_rtt,
                   options_.max_window_mss);
    scope->begin_run(nf, nl);
  }

  long steps_run = 0;
  for (long step = 0; step < options_.steps; ++step) {
    // Churn: flows joining at this step restart from their initial window;
    // departed flows stop contributing immediately.
    for (int f = 0; f < nf; ++f) {
      const FlowSpec& spec = flows_[f];
      if (!active_at(spec, step)) {
        windows[f] = 0.0;
      } else if (step == spec.start_step && step != 0) {
        windows[f] = clamp_window(spec.initial_window_mss);
      }
    }

    const std::span<const FluidLink> active_links = sched.at(step);

    // Fixed-point iteration for consistent carried loads: upstream loss
    // thins downstream arrivals, and arrivals determine loss. A handful of
    // rounds converges because loss rates are small and monotone.
    std::fill(link_loss.begin(), link_loss.end(), 0.0);
    for (int round = 0; round < 4; ++round) {
      std::fill(arrivals.begin(), arrivals.end(), 0.0);
      for (int f = 0; f < nf; ++f) {
        double carried = windows[f];
        for (int l : flows_[f].route) {
          arrivals[l] += carried;
          carried *= 1.0 - link_loss[l];
        }
      }
      for (int l = 0; l < nl; ++l) {
        link_loss[l] = active_links[l].loss_rate(arrivals[l]);
      }
    }

    for (int l = 0; l < nl; ++l) {
      utilization_sum[l] +=
          std::min(1.0, arrivals[l] / active_links[l].capacity_mss());
    }
    ++steps_run;

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
      if (!active_at(flows_[f], step)) {
        flow_loss[f] = 0.0;
        observed_loss[f] = 0.0;
        flow_rtt[f] = 0.0;
        continue;
      }
      double survive = 1.0;
      double rtt = 0.0;
      for (int l : flows_[f].route) {
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
                                : min_route_rtt;

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
      if (!active_at(flows_[f], step)) {
        next_windows[f] = 0.0;
        continue;
      }
      const cc::Observation obs{windows[f], observed_loss[f], flow_rtt[f]};
      next_windows[f] = clamp_window(flows_[f].protocol->next_window(obs));
    }
    windows.swap(next_windows);

    // The monitor sees the windows the flows just chose for the NEXT step,
    // matching FluidSimulation — a diverging protocol is caught here rather
    // than exploding inside a link's preconditions.
    if (step_monitor_ &&
        !step_monitor_(step, windows, mean_rtt, max_link_loss)) {
      break;
    }
  }

  if (scope != nullptr) scope->finish();

  link_mean_utilization_.assign(nl, 0.0);
  for (int l = 0; l < nl; ++l) {
    link_mean_utilization_[l] =
        utilization_sum[l] / static_cast<double>(std::max(steps_run, 1L));
  }
  return trace;
}

}  // namespace axiomcc::fluid
