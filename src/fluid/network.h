// network.h — network-wide fluid model: multiple bottlenecks, per-flow routes.
//
// The paper's Section 6 lists "generalizing our model to capture network-wide
// protocol interaction" as future work; this module is that generalization.
// The single-link model of sim.h becomes a set of links L and flows F, each
// flow f traversing an ordered route R(f) ⊆ L:
//
//   * every link l computes its own droptail loss from the aggregate window
//     of the flows crossing it, iterated to a consistent carried load
//     (upstream loss thins downstream arrival);
//   * a flow's observed loss composes across its route:
//     L_f = 1 − Π_{l ∈ R(f)} (1 − L_l);
//   * a flow's RTT adds propagation and queueing across its route.
//
// The network is a first-class engine substrate: it supports the same hooks
// as FluidSimulation — flow churn ([start, stop) step intervals), an injected
// (non-congestion) loss process composed into each flow's observation,
// network-wide bandwidth/RTT perturbation schedules, a step monitor that can
// stop the run early, aggregate-detail traces, and flight-recorder emission.
// engine::FluidBackend routes topology scenarios here; engine::
// apply_parking_lot builds the classic parking lot (one long flow crossing k
// bottlenecks, k short cross-flows), which exposes the beat-down of
// multi-hop flows that single-link analysis cannot see.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/schedule.h"
#include "fluid/trace.h"
#include "recorder/recorder.h"
#include "scope/scope.h"

namespace axiomcc::fluid {

/// A multi-link fluid network with per-flow routes.
struct NetworkOptions {
  long steps = 2000;
  double min_window_mss = 1.0;
  double max_window_mss = 1e9;
  /// Trace retention, as in SimOptions: kAggregate keeps population stats
  /// plus `tracked_senders` full series; kLast keeps the last step only.
  TraceDetail trace_detail = TraceDetail::kFull;
  int tracked_senders = 8;
  /// Non-owning flight-recorder sink (null = no recording).
  recorder::Recorder* record_sink = nullptr;
  /// Non-owning streaming-metric scope (null = no scope). Observes every
  /// flow (as a scope class) AND every link per step — the per-link
  /// channels are what single-link scopes cannot provide.
  scope::MetricScope* scope_sink = nullptr;
};

class FluidNetwork {
 public:
  using Options = NetworkOptions;

  /// A flow with churn: active on steps in [start_step, stop_step), with a
  /// negative stop meaning "forever". Rejoining is not modeled (one interval
  /// per flow, like fluid::SenderSpec).
  struct FlowSpec {
    std::unique_ptr<cc::Protocol> protocol;
    std::vector<int> route;  ///< ordered link ids, loop-free.
    double initial_window_mss = 1.0;
    long start_step = 0;
    long stop_step = -1;
  };

  explicit FluidNetwork(Options options = {});

  /// Adds a link; returns its id.
  int add_link(const LinkParams& params);

  /// Adds a flow with the given route (ordered link ids); returns its id.
  int add_flow(std::unique_ptr<cc::Protocol> protocol,
               std::vector<int> route, double initial_window_mss = 1.0);
  /// Adds a flow with full churn control; returns its id.
  int add_flow(FlowSpec spec);

  /// Injected (non-congestion) loss, composed into every active flow's
  /// observed loss exactly like FluidSimulation does. Default: none.
  void set_loss_injector(std::unique_ptr<LossInjector> injector);
  /// Network-wide multiplicative schedules: every link's bandwidth (or
  /// propagation delay) is scaled by the schedule's factor at each step.
  void set_bandwidth_schedule(Schedule scale);
  void set_rtt_schedule(Schedule scale);
  void set_step_monitor(StepMonitor monitor);

  [[nodiscard]] int num_links() const { return static_cast<int>(links_.size()); }
  [[nodiscard]] int num_flows() const { return static_cast<int>(flows_.size()); }

  [[nodiscard]] const FluidLink& link(int id) const;

  /// Runs the dynamics and returns the per-flow trace. The Trace's
  /// "congestion loss" series records the MAXIMUM per-link loss each step
  /// (the binding bottleneck), its capacity is the MINIMUM link capacity on
  /// any route, and its min-RTT is the smallest route RTT.
  [[nodiscard]] Trace run();

  /// Per-link MEAN utilization of the last run (diagnostics): the average of
  /// min(1, arrivals/capacity) over EVERY executed step — the full horizon,
  /// no tail window is applied. When a step monitor stops the run early,
  /// the mean covers only the steps actually run.
  [[nodiscard]] const std::vector<double>& link_mean_utilization() const {
    return link_mean_utilization_;
  }

 private:
  Options options_;
  std::vector<FluidLink> links_;
  std::vector<FlowSpec> flows_;
  std::unique_ptr<LossInjector> injector_;
  Schedule bandwidth_scale_;
  Schedule rtt_scale_;
  StepMonitor step_monitor_;
  std::vector<double> link_mean_utilization_;
  bool ran_ = false;
};

}  // namespace axiomcc::fluid
