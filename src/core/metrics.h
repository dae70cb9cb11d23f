// metrics.h — empirical estimators for the paper's eight axioms (Section 3).
//
// Each axiom is an ∃T-from-T-onwards statement; the estimators approximate
// "from T onwards" by scoring only the tail of a finite trace (the transient
// prefix fraction is configurable). Each estimator makes one pass over the
// tail and hands its statistics to the metric's formula in scope/scope.h,
// the same formula the streaming scope applies to its windows. Scores follow
// the paper's orientation:
//
//   Metric I    efficiency            higher is better (∈ [0, 1])
//   Metric II   fast-utilization      higher is better (MSS/RTT²·2)
//   Metric III  loss-avoidance        LOWER is better (a loss-rate bound)
//   Metric IV   fairness              higher is better (∈ [0, 1])
//   Metric V    convergence           higher is better (∈ [0, 1])
//   Metric VI   robustness            higher is better (a loss-rate tolerance)
//   Metric VII  TCP-friendliness      higher is better (window ratio)
//   Metric VIII latency-avoidance     LOWER is better (RTT inflation bound)
#pragma once

#include <span>

#include "fluid/trace.h"

namespace axiomcc::core {

/// How metric estimators reduce a trace.
struct EstimatorConfig {
  /// Fraction of the trace treated as transient and discarded.
  double tail_fraction = 0.5;
  /// Fraction of worst-case tail samples ignored by the convergence
  /// estimator. 0 is the axiom's exact ∀t quantifier; packet-level traces
  /// carry sampling noise that a small allowance (e.g. 0.02) absorbs.
  double outlier_fraction = 0.0;
};

/// Metric I: the largest α such that X(t) ≥ αC over the tail, capped at 1.
[[nodiscard]] double measure_efficiency(const fluid::Trace& trace,
                                        const EstimatorConfig& cfg = {});

/// Metric III: the smallest loss bound α that holds over the tail
/// (max tail congestion-loss rate). Lower is better; 0 means "0-loss".
[[nodiscard]] double measure_loss_avoidance(const fluid::Trace& trace,
                                            const EstimatorConfig& cfg = {});

/// Average tail congestion-loss rate — not one of the paper's axioms, but
/// the quantity a packet-count measurement (lost/sent) estimates; used when
/// comparing fluid predictions against packet-level runs.
[[nodiscard]] double measure_mean_loss(const fluid::Trace& trace,
                                       const EstimatorConfig& cfg = {});

/// Metric IV: the largest α such that every sender's tail-average window is
/// at least α times every other sender's. 1 for a single sender.
[[nodiscard]] double measure_fairness(const fluid::Trace& trace,
                                      const EstimatorConfig& cfg = {});

/// Metric V: the largest α such that every sender's tail windows stay within
/// [αx*, (2−α)x*] of its tail-mean window x*. Clamped to [0, 1].
[[nodiscard]] double measure_convergence(const fluid::Trace& trace,
                                         const EstimatorConfig& cfg = {});

/// Metric VIII: the smallest α such that RTT(t) < (1+α)·2Θ over the tail.
/// Lower is better; 0 means the queue stays empty.
[[nodiscard]] double measure_latency_avoidance(const fluid::Trace& trace,
                                               const EstimatorConfig& cfg = {});

/// Metric VII (and the generic α-friendliness of Metric VII's definition):
/// given a mixed trace, the largest α such that every `q_senders` member's
/// tail-average window is at least α times every `p_senders` member's.
/// For TCP-friendliness, P is the protocol under test and Q is Reno.
[[nodiscard]] double measure_friendliness(const fluid::Trace& trace,
                                          std::span<const int> p_senders,
                                          std::span<const int> q_senders,
                                          const EstimatorConfig& cfg = {});

/// Metric II helper: the fast-utilization coefficient of a loss-free window
/// series, i.e. the largest α with Σ(x(t)−x(t₁)) ≥ αΔt²/2 for the sampled
/// start offsets (scope::fast_utilization without saturation truncation).
/// Requires more than `warmup_steps + 1` samples.
[[nodiscard]] double fast_utilization_coefficient(std::span<const double> windows,
                                                  long warmup_steps);

/// Average goodput (window·(1−loss)) of a sender over the tail; used for the
/// paper's "more aggressive than" relation (Theorem 4).
[[nodiscard]] double tail_goodput(const fluid::Trace& trace, int sender,
                                  const EstimatorConfig& cfg = {});

}  // namespace axiomcc::core
