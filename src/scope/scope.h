// scope.h — the streaming axiom scope: online windowed estimates of the
// paper's eight metrics, computed incrementally while a simulation runs.
//
// The post-hoc estimators in core/metrics.h reduce a *finished* trace to one
// scalar per axiom. That shape cannot answer "when did efficiency collapse"
// or "on which link did fairness invert" — the questions routed topologies
// and generated workloads raise. The scope answers them: backends feed it
// one call per recorded step, it folds per-window accumulators in the same
// serial ascending order as the trace (so the series is byte-identical at
// any --jobs and across the materialized/uniform fluid cohort layouts), and
// closes a window every `window_steps` samples into one value per (subject,
// axis) channel. With `window_steps == 0` the single full-horizon window
// reproduces the post-hoc estimators exactly (see docs/observability.md for
// the per-axis equivalence statement).
//
// Subjects:
//   run    — the aggregate: all eight axes (+ a Jain-index diagnostic).
//   class  — one sender slot / flow / cohort: loss-avoidance, convergence.
//   link   — one bottleneck of a routed topology: efficiency,
//            loss-avoidance, latency-avoidance.
//
// Memory is O(classes + links + windows) — independent of the sender count,
// so million-sender fluid runs keep their footprint. The one exception is
// fast-utilization, which retains the per-step aggregate-window series (the
// same footprint the aggregate trace already pays) because the paper's
// coefficient samples start offsets that are only known once the horizon or
// the saturation point is reached.
//
// Each metric's formula lives here once, as a pure function of the window
// statistics it needs (efficiency … latency_avoidance below). The scope
// calls them on its streaming accumulators; core's post-hoc estimators
// (core/metrics.h) call the same functions on one pass over a finished
// trace's tail. The equivalence tests therefore check that the two ways of
// accumulating agree; the hand-computed answers in core_metrics_test stay the
// independent oracle for the formulas themselves.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "recorder/recorder.h"

namespace axiomcc::scope {

/// The paper's eight metric axes, indexed like core::Metric (Section 3).
enum class Axis : int {
  kEfficiency = 0,       ///< Metric I    higher is better
  kFastUtilization = 1,  ///< Metric II   higher is better
  kLossAvoidance = 2,    ///< Metric III  LOWER is better
  kFairness = 3,         ///< Metric IV   higher is better
  kConvergence = 4,      ///< Metric V    higher is better
  kRobustness = 5,       ///< Metric VI   higher is better (online proxy)
  kTcpFriendliness = 6,  ///< Metric VII  higher is better
  kLatencyAvoidance = 7, ///< Metric VIII LOWER is better
};

inline constexpr int kNumAxes = 8;

[[nodiscard]] const char* axis_name(Axis axis);
[[nodiscard]] bool axis_lower_is_better(Axis axis);

/// The flight-recorder event code carrying one axis (event.h appends the
/// eight metric codes after the guard codes, in Axis order).
[[nodiscard]] recorder::EventCode axis_event_code(Axis axis);

// The estimator formulas, one per metric. Each takes the statistics of one
// window (or one tail) and returns the paper-oriented score.

/// Metric I: the worst aggregate window over capacity, capped at 1; 1 when
/// `capacity <= 0`.
[[nodiscard]] double efficiency(double total_min, double capacity);

/// Metric II: the fast-utilization coefficient of a loss-free window series,
/// the largest α with Σ(x(t)−x(t₁)) ≥ αΔt²/2 over three start offsets t₁
/// after `warmup` (full suffixes, the binding case for convex growth); 0
/// when the series has no sample past warmup + 1. `max_window > 0` first
/// truncates the series at its first sample >= 0.99·max_window, keeping at
/// least warmup + 16 samples: past saturation the series is flat and would
/// mask the growth before it. `max_window <= 0` means no truncation.
[[nodiscard]] double fast_utilization(std::span<const double> series,
                                      long warmup, double max_window);

/// Metric IV: the smallest mean window over the largest; 1 for fewer than
/// two means or when no mean is positive.
[[nodiscard]] double fairness(std::span<const double> means);

/// Metric V for one sender or class: the largest α in [0, 1] with every
/// sample in [αx*, (2−α)x*], where x* = sum/samples, from the samples' sum,
/// min and max; 1 when there are no samples or x* <= 0. Rounded division
/// and subtraction are monotone, so this equals the per-sample minimum of
/// min(x/x*, 2 − x/x*) bit for bit.
[[nodiscard]] double convergence_band(double sum, double min, double max,
                                      long samples);

/// Metric VII: the smallest Q mean over the largest P mean, where
/// `means[0, p)` are the P senders and the rest are Q; 1 when either side
/// is empty or no P mean is positive.
[[nodiscard]] double friendliness(std::span<const double> means,
                                  std::size_t p);

/// Metric VIII: the RTT inflation max(0, rtt_max/min_rtt − 1); 0 when
/// `min_rtt <= 0`.
[[nodiscard]] double latency_avoidance(double rtt_max, double min_rtt);

/// Who a scope channel describes.
enum class SubjectKind : int {
  kRun = 0,    ///< the aggregate of the whole run.
  kClass = 1,  ///< one sender slot / flow / cohort (engine slot order).
  kLink = 2,   ///< one link of a routed topology (topology link order).
};

/// How the scope windows and normalizes. Backends copy this off
/// engine::ScenarioSpec; engine::make_scope fills the link-derived fields.
struct ScopeConfig {
  /// Master switch (mirrors recorder::RecordOptions::enabled).
  bool enabled = false;
  /// Samples per window. 0 selects ONE full-horizon window — the mode whose
  /// estimates match the post-hoc core estimators.
  long window_steps = 0;
  /// Steps before this index are excluded from every windowed accumulator
  /// (the post-hoc estimators' transient prefix: floor(steps·tail_fraction)
  /// reproduces their tail boundary exactly). The fast-utilization channel
  /// uses it as the coefficient's warmup offset instead. Negative = "auto":
  /// the backend resolves it to floor(steps·tail_fraction) via resolve().
  long warmup_steps = -1;
  /// Metric VII split: the first `p_classes` classes are the P side
  /// (protocol under test), the rest are Q (the Reno competitors) — the
  /// order core::evaluate_protocol's mixed run uses. 0 disables the split
  /// and the friendliness channel reports 1.
  int p_classes = 0;
  /// Efficiency denominator: the aggregate capacity in MSS (min-capacity
  /// link for routed topologies). <= 0 makes efficiency report 1.
  double capacity_mss = 0.0;
  /// Latency baseline: the zero-load RTT in seconds. <= 0 makes
  /// latency-avoidance report 0.
  double min_rtt_seconds = 0.0;
  /// Fast-utilization saturation cap (the run's max window), passed to
  /// fast_utilization() as core::measure_fast_utilization_score passes it.
  double max_window_mss = 0.0;
};

/// One closed window of one channel.
struct WindowSample {
  long start_step = 0;  ///< first step folded into the window.
  long end_step = 0;    ///< last step folded into the window.
  double value = 0.0;
};

/// One (subject, axis) time-series.
struct Channel {
  SubjectKind kind = SubjectKind::kRun;
  int subject = -1;  ///< class/link id; -1 for the run.
  Axis axis = Axis::kEfficiency;
  std::vector<WindowSample> samples;
};

/// Everything the scope measured, in a deterministic channel order: the
/// eight run axes first, then per-class channels ascending, then per-link
/// channels ascending.
struct ScopeSeries {
  std::vector<Channel> channels;
  /// Run-level Jain fairness index per window — a diagnostic riding along
  /// with the paper's min/max fairness (Metric IV), not one of the axes.
  std::vector<WindowSample> jain;

  [[nodiscard]] const Channel* find(SubjectKind kind, int subject,
                                    Axis axis) const;
  /// Last closed value of a channel, or `fallback` when it never closed.
  [[nodiscard]] double last(SubjectKind kind, int subject, Axis axis,
                            double fallback) const;
};

/// The online engine. One instance observes one run:
///
///   scope.begin_run(num_classes, num_links);
///   per step (in the backend's serial section):
///     scope.step_begin(step, total_window, rtt_seconds, congestion_loss);
///     scope.observe_class(c, window, observed_loss [, count]);  // ascending
///     scope.observe_link(l, utilization, loss_rate, rtt_ratio); // ascending
///     scope.step_end();
///   scope.finish();
///
/// `observe_class` folds `count` serial adds (util/repeated_add, in
/// O(binades) rather than O(count)), so the uniform-cohort fluid path (one
/// call per cohort) is bitwise identical to the materialized path (one call
/// per member with identical windows).
class MetricScope {
 public:
  explicit MetricScope(ScopeConfig config);

  /// Optional flight-recorder sink: every closed window is also emitted as
  /// one kMetric event per channel (Subject::kRun / kCohort / kLink). Null
  /// (the default) keeps the series in-process only.
  void set_recorder(recorder::Recorder* recorder) { recorder_ = recorder; }

  /// Backend fill-ins, called once before begin_run: every field is adopted
  /// only where the caller left the config unset (warmup < 0, the rest
  /// <= 0), so explicit caller values always win.
  void resolve(long steps, double tail_fraction, double capacity_mss,
               double min_rtt_seconds, double max_window_mss);

  void begin_run(int num_classes, int num_links);
  void step_begin(long step, double total_window, double rtt_seconds,
                  double congestion_loss);
  void observe_class(int class_id, double window_mss, double observed_loss,
                     long count = 1);
  void observe_link(int link_id, double utilization, double loss_rate,
                    double rtt_ratio);
  void step_end();
  /// Closes the final (possibly partial) window. Idempotent.
  void finish();

  [[nodiscard]] const ScopeConfig& config() const { return config_; }
  [[nodiscard]] const ScopeSeries& series() const { return series_; }
  /// Shorthand for the run channel's last value (NaN fallback when the run
  /// produced no window).
  [[nodiscard]] double run_estimate(Axis axis) const;

 private:
  struct ClassAccum {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double loss_max = 0.0;
    long samples = 0;  ///< (sample, member) contributions.
  };
  struct LinkAccum {
    double util_min = 0.0;
    double loss_max = 0.0;
    double rtt_ratio_max = 0.0;
    long samples = 0;
  };

  void close_window();
  void emit(SubjectKind kind, int subject, Axis axis, const WindowSample& w);

  ScopeConfig config_;
  recorder::Recorder* recorder_ = nullptr;
  ScopeSeries series_;

  std::vector<ClassAccum> classes_;
  std::vector<LinkAccum> links_;

  // Run-level window accumulators.
  double total_min_ = 0.0;
  double loss_max_ = 0.0;
  double rtt_max_ = 0.0;
  long run_samples_ = 0;
  long window_start_step_ = 0;
  long current_step_ = 0;
  bool in_step_ = false;
  bool finished_ = false;

  // Robustness proxy state (spans windows): a "lossy" sample is one whose
  // congestion or observed loss is positive; it "escapes" when the aggregate
  // window still grew versus the previous sample.
  double prev_total_ = 0.0;
  bool have_prev_total_ = false;
  bool step_lossy_ = false;
  long lossy_samples_ = 0;
  long lossy_escapes_ = 0;

  /// Aggregate-window history for the fast-utilization coefficient (all
  /// steps, pre-warmup included — the coefficient applies its own warmup).
  std::vector<double> totals_;
};

}  // namespace axiomcc::scope
