// evaluator.h — maps a protocol to its point in the 8-metric space.
//
// This is the operational heart of the axiomatic framework: given any
// cc::Protocol it runs the scenario each axiom's definition prescribes
// (homogeneous sharing for efficiency/fairness/convergence, a lone sender on
// an effectively infinite link for fast-utilization and robustness, a mixed
// run against TCP Reno for TCP-friendliness) and measures the scores with the
// estimators in metrics.h.
#pragma once

#include <memory>

#include "cc/protocol.h"
#include "core/metric_point.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "fluid/link.h"
#include "fluid/sim.h"

namespace axiomcc::core {

/// Scenario parameters for a full 8-metric evaluation.
struct EvalConfig {
  /// The shared-link scenario (efficiency, loss, fairness, convergence,
  /// latency, friendliness). Default: the paper's experimental setting,
  /// 30 Mbps, 42 ms RTT, 100-MSS buffer.
  fluid::LinkParams link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  int num_senders = 2;
  long steps = 4000;
  double tail_fraction = 0.5;

  /// Fast-utilization scenario: a lone sender with nothing in its way.
  /// The horizon caps the measurable coefficient (super-linear protocols like
  /// MIMD are ∞-fast-utilizing only in the Δt→∞ limit); 2000 steps keeps the
  /// hierarchy over the Table 1 protocols intact.
  long fast_utilization_steps = 2000;
  long fast_utilization_warmup = 10;

  /// Robustness scenario (Metric VI): lone sender, infinite capacity,
  /// constant injected loss; binary search for the largest tolerated rate.
  long robustness_steps = 2500;
  double robustness_escape_window = 500.0;  ///< the β the window must exceed.
  int robustness_search_iterations = 14;
  double robustness_max_rate = 0.5;

  /// TCP-friendliness scenario: `num_protocol_senders` P-senders vs
  /// `num_reno_senders` Reno senders on `link`.
  int num_protocol_senders = 1;
  int num_reno_senders = 1;

  /// Which simulator executes the scenarios. The default reproduces the
  /// paper's fluid model bit-for-bit; kPacket reruns every scenario on the
  /// packet-level dumbbell (subject to the `packet` clamps below).
  engine::BackendKind backend = engine::BackendKind::kFluid;

  /// Clamps applied only when `backend == kPacket`. The fluid model's cost
  /// per step is O(senders) regardless of window size, so it happily runs
  /// "infinite" links (10^15 MSS/s) and 10^9-MSS window caps; a packet
  /// simulation's event count is proportional to the number of real packets,
  /// so those settings would never finish. Each knob is an upper bound: the
  /// effective value is min(the fluid-configured value, the clamp).
  struct PacketLimits {
    /// Replaces the robustness/fast-utilization "infinite" link: capacity
    /// C = this many MSS at the base link's RTT (buffer equally large).
    /// Must exceed `max_window_mss` so the cap, not congestion, is what
    /// flattens an escaping window.
    double infinite_capacity_mss = 2e3;
    /// Per-sender cwnd cap (the fluid runs use 10^9).
    double max_window_mss = 1e3;
    long max_steps = 1500;               ///< shared-link/mixed horizon cap.
    long fast_utilization_steps = 300;
    long robustness_steps = 250;
    int robustness_search_iterations = 6;
    /// Escape threshold β; must sit well below `max_window_mss`.
    double robustness_escape_window = 100.0;
  };
  PacketLimits packet;

  [[nodiscard]] EstimatorConfig estimator() const {
    return EstimatorConfig{tail_fraction};
  }

  /// Throws engine::ScenarioError naming the first field no run can honour:
  /// a link that fails engine::validate_link; a sender count below 1; a
  /// horizon or `packet` horizon below 1; `tail_fraction` outside [0, 1);
  /// a `fast_utilization_warmup` that leaves fewer than two steps of the
  /// fast-utilization run the backend makes; an escape window that is not
  /// finite and positive; a negative search iteration count; a
  /// `robustness_max_rate` outside [0, 1) (a constant loss rate); an unknown
  /// backend; and `packet` window bounds out of order (cap ≥ 1, escape
  /// window below the cap, infinite capacity above it). Every public entry
  /// point below that takes an EvalConfig calls it first.
  void validate() const;
};

/// Runs the homogeneous shared-link scenario and returns its trace (exposed
/// for examples/benches that want the raw dynamics). Senders start from
/// spread-out initial windows to exercise convergence.
[[nodiscard]] fluid::Trace run_shared_link(const cc::Protocol& prototype,
                                           const EvalConfig& cfg);

/// Metric II: the fast-utilization coefficient measured on a lone sender
/// over an effectively infinite link.
[[nodiscard]] double measure_fast_utilization_score(
    const cc::Protocol& prototype, const EvalConfig& cfg = {});

/// Metric VI: the largest constant non-congestion loss rate under which a
/// lone sender on an infinite link still escapes to an arbitrarily large
/// window (binary search; resolution 2^-iterations · max_rate).
[[nodiscard]] double measure_robustness_score(const cc::Protocol& prototype,
                                              const EvalConfig& cfg = {});

/// Metric VII: friendliness of `prototype` toward TCP Reno (AIMD(1,0.5)).
[[nodiscard]] double measure_tcp_friendliness_score(
    const cc::Protocol& prototype, const EvalConfig& cfg = {});

/// Generic α-friendliness of protocol P toward protocol Q (Metric VII's
/// definition with arbitrary Q): Q-senders' guaranteed share relative to P.
[[nodiscard]] double measure_friendliness_between(const cc::Protocol& p,
                                                  const cc::Protocol& q,
                                                  const EvalConfig& cfg = {});

/// The paper's "more aggressive" relation (Section 4): P is more aggressive
/// than Q when, in a mixed run, every P-sender's average goodput exceeds
/// every Q-sender's.
[[nodiscard]] bool is_more_aggressive(const cc::Protocol& p,
                                      const cc::Protocol& q,
                                      const EvalConfig& cfg = {});

/// Full 8-metric evaluation.
[[nodiscard]] MetricReport evaluate_protocol(const cc::Protocol& prototype,
                                             const EvalConfig& cfg = {});

}  // namespace axiomcc::core
