// sim.h — the discrete-time fluid-flow simulation (paper Section 2) and its
// network-wide generalization (the paper's Section 6 future work).
//
// n senders share one FluidLink. Time advances in steps of one RTT. At each
// step the link computes the RTT and the synchronized droptail loss rate from
// the aggregate window; every active sender observes them (plus any injected
// non-congestion loss) and picks its next window via its Protocol. Updates
// are synchronized: every sender updates at every step it is active.
//
// Three step loops; run() picks one from the run's shape before the first
// step. The scalar loop runs the core evaluator's small scenarios — every
// group one sender active from step 0 on, stateless injected loss, no step
// monitor, scope or recorder — with nothing per cohort: per step one fold,
// the link's loss and RTT, one injector sample, the trace append (at a
// last-step trace, only at the final step), and one virtual
// Protocol::next_window call per sender.
//
// The cohort loop runs every other single-link run. Each sender group is a
// cohort stored at one of two widths: every member (materialized), or a
// single representative when the cohort provably stays bitwise uniform —
// aggregate trace, no step monitor, and a stateless loss injector — so a
// million identical senders cost O(cohorts) per step: a representative
// folds its `count` windows into the serial aggregate with
// util/repeated_add, the exact closed form of that many adds. Materialized
// cohorts of batchable families advance through SoA kernels
// (cc::BatchProtocol), one call per cohort per step; everything else makes
// one virtual Protocol::next_window call per member per step.
//
// The routed loop runs a run whose senders carry routes over a list of
// links (multiple bottlenecks). Every cohort member is its own flow:
//   * every link computes its own droptail loss from the flows crossing it,
//     iterated to a consistent carried load (upstream loss thins downstream
//     arrival);
//   * a flow's observed loss composes across its route,
//     L_f = 1 − Π_{l ∈ R(f)} (1 − L_l), and its RTT adds propagation and
//     queueing across the route;
//   * the trace's congestion loss is the maximum per-link loss (the binding
//     bottleneck), its RTT the mean over active flows, its capacity the
//     smallest link capacity on any route and its min-RTT the smallest
//     route RTT;
//   * the scope observes every flow as a class and every link.
// engine::apply_parking_lot builds the classic parking lot (one long flow
// crossing k bottlenecks, k short cross-flows), which exposes the
// beat-down of multi-hop flows that single-link analysis cannot see.
//
// The single-link loops share one helper per formula (fold, link,
// combine_loss, member update). Determinism: every loop is serial — the
// aggregate-window fold, stateful loss sampling and the window update all
// run in ascending sender order — so traces are byte-identical in either
// single-link loop and at either cohort width.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "cc/protocol.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/schedule.h"
#include "fluid/trace.h"
#include "recorder/recorder.h"
#include "scope/scope.h"

namespace axiomcc::fluid {

/// One sender: a protocol plus its initial window.
///
/// `start_step`/`stop_step` model flow churn (stress scenarios): the sender
/// is active on steps t with start ≤ t < stop (negative stop → forever).
/// While inactive its window is exactly 0 — it contributes nothing to the
/// aggregate and its protocol is not consulted; on joining it restarts from
/// `initial_window_mss` like a fresh connection.
///
/// `route` lists the ordered link ids the sender's flow crosses, each at
/// most once; it is empty on a single-link run. A run has routes on every
/// sender or on none.
struct SenderSpec {
  std::unique_ptr<cc::Protocol> protocol;
  double initial_window_mss = 1.0;
  long start_step = 0;
  long stop_step = -1;
  std::vector<int> route = {};
};

/// Simulation-wide options. (The pragma keeps the implicit special members'
/// use of the deprecated `batch` and `jobs` fields from warning in every
/// includer.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
struct SimOptions {
  long steps = 2000;             ///< number of RTT steps to simulate.
  double min_window_mss = 1.0;   ///< window floor (avoids x^-k singularities).
  double max_window_mss = 1e9;   ///< the paper's M (1 << M).
  /// Trace retention: kFull keeps every sender's series; kAggregate keeps
  /// per-step population statistics plus `tracked_senders` full series, so
  /// trace memory is independent of the population size; kLast keeps only
  /// the last recorded step (the scalar loop appends nothing before it).
  TraceDetail trace_detail = TraceDetail::kFull;
  int tracked_senders = 8;       ///< k for kAggregate (clamped to n).
  /// No longer read: run() picks its step loop from the run's shape. Kept
  /// only so existing callers that assign it still compile.
  [[deprecated("the fluid simulation picks its step loop itself")]] bool
      batch = false;
  /// No longer read: a run is one serial loop. Kept only so existing
  /// callers that assign it still compile.
  [[deprecated("the fluid simulation runs serially")]] long jobs = 1;
  /// Non-owning flight-recorder sink (null = no recording). Emission —
  /// churn/schedule/loss transitions plus stride-sampled windows — is
  /// byte-identical across cohort widths (modulo the kCohort setup events
  /// naming each cohort's execution mode; a routed run emits none, and
  /// records each flow as its own lane).
  recorder::Recorder* record_sink = nullptr;
  /// Non-owning streaming-metric scope (null = no scope). Fed once per step
  /// like the recorder — one step_begin/observe/step_end sweep, with counted
  /// repeated-add folds for uniform representatives — so its series is
  /// byte-identical across cohort widths. A routed run observes every flow
  /// as a class and every link. When `record_sink` is also installed,
  /// closed metric windows are forwarded to it as kMetric events.
  scope::MetricScope* scope_sink = nullptr;
};
#pragma GCC diagnostic pop

/// Runs the fluid model and records a Trace.
class FluidSimulation {
 public:
  /// A single-link run: senders carry no route.
  FluidSimulation(const LinkParams& link, SimOptions options = {});
  /// A run over `links` (link id = index): every sender carries a route,
  /// unless the list holds a single link and no sender does.
  FluidSimulation(const std::vector<LinkParams>& links,
                  SimOptions options = {});

  /// Adds a sender. The protocol prototype is cloned, so one prototype can
  /// seed many senders.
  void add_sender(const cc::Protocol& prototype, double initial_window_mss);
  void add_sender(SenderSpec spec);

  /// Adds `count` senders sharing one spec. The cohort stores ONE prototype
  /// regardless of count — kernel cohorts run without any per-sender clone,
  /// and other cohorts clone per stored member lazily at run time — so
  /// constructing a million-sender population is O(1) protocol allocations
  /// for batchable families. On a routed run every member is its own flow
  /// over `spec.route`. A route naming an unknown link or crossing a link
  /// twice, or a run mixing routed and unrouted senders, is a contract
  /// violation.
  void add_senders(SenderSpec spec, long count);
  void add_senders(const cc::Protocol& prototype, long count,
                   double initial_window_mss);

  /// Installs a non-congestion loss injector (applies to all senders).
  /// Default: no injected loss.
  void set_loss_injector(std::unique_ptr<LossInjector> injector);

  /// Installs a time-varying bandwidth schedule: every link's bandwidth at
  /// step t is scale.at(t) × the configured bandwidth (buffer unchanged).
  /// Models capacity changes (handover, cross-traffic departure) for the
  /// responsiveness metric; default is the empty schedule (link untouched).
  /// A non-positive scale is a contract violation when its step runs.
  void set_bandwidth_schedule(Schedule scale);

  /// Installs a time-varying propagation-delay schedule: every link's
  /// one-way delay at step t is scale.at(t) × the configured delay. Models
  /// RTT inflation (path changes, bufferbloat upstream). Note that scaling
  /// Θ also scales the capacity C = B·2Θ, as it does physically.
  void set_rtt_schedule(Schedule scale);

  /// Installs a per-step observer (fluid/trace.h) — the hook the guarded
  /// stress runner uses to catch divergence (NaN, blowup) before the link's
  /// preconditions explode on it.
  void set_step_monitor(StepMonitor monitor);

  /// Number of senders added so far.
  [[nodiscard]] int num_senders() const {
    return static_cast<int>(total_senders_);
  }

  /// Runs the configured number of steps and returns the trace.
  /// Requires at least one sender. May be called once per simulation object.
  [[nodiscard]] Trace run();

 private:
  /// A contiguous run of `count` senders sharing one SenderSpec (the
  /// protocol member is the shared prototype). add_sender makes count-1
  /// groups, so the sender index space is the concatenation of groups in
  /// insertion order — identical to the historical flat vector.
  struct SenderGroup {
    SenderSpec spec;
    long count = 1;
  };

  [[nodiscard]] Trace new_trace() const;
  [[nodiscard]] Trace scalar_loop();
  [[nodiscard]] Trace tick_loop();
  [[nodiscard]] Trace routed_loop();

  std::vector<FluidLink> links_;
  SimOptions options_;
  std::vector<SenderGroup> groups_;
  long total_senders_ = 0;
  std::unique_ptr<LossInjector> injector_;
  Schedule bandwidth_scale_;
  Schedule rtt_scale_;
  StepMonitor step_monitor_;
  /// The trace geometry run() computes before the loop starts.
  double capacity_mss_ = std::numeric_limits<double>::infinity();
  double min_rtt_seconds_ = std::numeric_limits<double>::infinity();
  bool ran_ = false;
};

/// Convenience: runs `n` identical senders of `prototype` on `link` with the
/// given initial windows (broadcast if a single value is given).
[[nodiscard]] Trace run_homogeneous(const LinkParams& link,
                                    const cc::Protocol& prototype, int n,
                                    double initial_window_mss,
                                    const SimOptions& options = {});

}  // namespace axiomcc::fluid
