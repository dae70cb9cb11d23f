#include "scope/scope.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/repeated_add.h"

namespace axiomcc::scope {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

const char* axis_name(Axis axis) {
  switch (axis) {
    case Axis::kEfficiency: return "efficiency";
    case Axis::kFastUtilization: return "fast_utilization";
    case Axis::kLossAvoidance: return "loss_avoidance";
    case Axis::kFairness: return "fairness";
    case Axis::kConvergence: return "convergence";
    case Axis::kRobustness: return "robustness";
    case Axis::kTcpFriendliness: return "friendliness";
    case Axis::kLatencyAvoidance: return "latency";
  }
  return "efficiency";
}

bool axis_lower_is_better(Axis axis) {
  return axis == Axis::kLossAvoidance || axis == Axis::kLatencyAvoidance;
}

recorder::EventCode axis_event_code(Axis axis) {
  switch (axis) {
    case Axis::kEfficiency: return recorder::EventCode::kEfficiency;
    case Axis::kFastUtilization:
      return recorder::EventCode::kFastUtilization;
    case Axis::kLossAvoidance: return recorder::EventCode::kLossAvoidance;
    case Axis::kFairness: return recorder::EventCode::kFairness;
    case Axis::kConvergence: return recorder::EventCode::kConvergence;
    case Axis::kRobustness: return recorder::EventCode::kRobustness;
    case Axis::kTcpFriendliness: return recorder::EventCode::kFriendliness;
    case Axis::kLatencyAvoidance: return recorder::EventCode::kLatency;
  }
  return recorder::EventCode::kEfficiency;
}

const Channel* ScopeSeries::find(SubjectKind kind, int subject,
                                 Axis axis) const {
  for (const Channel& c : channels) {
    if (c.kind == kind && c.subject == subject && c.axis == axis) return &c;
  }
  return nullptr;
}

double ScopeSeries::last(SubjectKind kind, int subject, Axis axis,
                         double fallback) const {
  const Channel* c = find(kind, subject, axis);
  if (c == nullptr || c->samples.empty()) return fallback;
  return c->samples.back().value;
}

MetricScope::MetricScope(ScopeConfig config) : config_(config) {
  if (config_.window_steps < 0) config_.window_steps = 0;
}

void MetricScope::resolve(long steps, double tail_fraction,
                          double capacity_mss, double min_rtt_seconds,
                          double max_window_mss) {
  if (config_.warmup_steps < 0) {
    const double fraction = std::clamp(tail_fraction, 0.0, 1.0);
    config_.warmup_steps =
        static_cast<long>(static_cast<double>(steps) * fraction);
  }
  if (config_.capacity_mss <= 0.0) config_.capacity_mss = capacity_mss;
  if (config_.min_rtt_seconds <= 0.0) {
    config_.min_rtt_seconds = min_rtt_seconds;
  }
  if (config_.max_window_mss <= 0.0) config_.max_window_mss = max_window_mss;
}

void MetricScope::begin_run(int num_classes, int num_links) {
  if (config_.warmup_steps < 0) config_.warmup_steps = 0;
  AXIOMCC_EXPECTS(num_classes >= 0 && num_links >= 0);
  classes_.assign(static_cast<std::size_t>(num_classes), ClassAccum{});
  links_.assign(static_cast<std::size_t>(num_links), LinkAccum{});

  series_.channels.clear();
  series_.jain.clear();
  for (int m = 0; m < kNumAxes; ++m) {
    series_.channels.push_back(
        Channel{SubjectKind::kRun, -1, static_cast<Axis>(m), {}});
  }
  for (int c = 0; c < num_classes; ++c) {
    series_.channels.push_back(
        Channel{SubjectKind::kClass, c, Axis::kLossAvoidance, {}});
    series_.channels.push_back(
        Channel{SubjectKind::kClass, c, Axis::kConvergence, {}});
  }
  for (int l = 0; l < num_links; ++l) {
    series_.channels.push_back(
        Channel{SubjectKind::kLink, l, Axis::kEfficiency, {}});
    series_.channels.push_back(
        Channel{SubjectKind::kLink, l, Axis::kLossAvoidance, {}});
    series_.channels.push_back(
        Channel{SubjectKind::kLink, l, Axis::kLatencyAvoidance, {}});
  }

  total_min_ = 0.0;
  loss_max_ = 0.0;
  loss_sum_ = 0.0;
  rtt_max_ = 0.0;
  run_samples_ = 0;
  window_start_step_ = 0;
  current_step_ = 0;
  in_step_ = false;
  finished_ = false;
  prev_total_ = 0.0;
  have_prev_total_ = false;
  step_lossy_ = false;
  lossy_samples_ = 0;
  lossy_escapes_ = 0;
  totals_.clear();
}

void MetricScope::step_begin(long step, double total_window,
                             double rtt_seconds, double congestion_loss) {
  AXIOMCC_EXPECTS(!in_step_ && !finished_);
  in_step_ = true;
  current_step_ = step;
  totals_.push_back(total_window);
  step_lossy_ = congestion_loss > 0.0;
  if (step < config_.warmup_steps) return;
  if (run_samples_ == 0) {
    window_start_step_ = step;
    total_min_ = total_window;
  } else {
    total_min_ = std::min(total_min_, total_window);
  }
  loss_max_ = std::max(loss_max_, congestion_loss);
  loss_sum_ += congestion_loss;
  rtt_max_ = std::max(rtt_max_, rtt_seconds);
  ++run_samples_;
}

void MetricScope::observe_class(int class_id, double window_mss,
                                double observed_loss, long count) {
  AXIOMCC_EXPECTS(in_step_);
  AXIOMCC_EXPECTS(class_id >= 0 &&
                  static_cast<std::size_t>(class_id) < classes_.size());
  AXIOMCC_EXPECTS(count >= 1);
  if (observed_loss > 0.0) step_lossy_ = true;
  if (current_step_ < config_.warmup_steps) return;
  ClassAccum& a = classes_[static_cast<std::size_t>(class_id)];
  if (a.samples == 0) {
    a.min = window_mss;
    a.max = window_mss;
  } else {
    a.min = std::min(a.min, window_mss);
    a.max = std::max(a.max, window_mss);
  }
  a.loss_max = std::max(a.loss_max, observed_loss);
  // `count` serial adds, NOT count·x: the uniform-cohort path calls this
  // once per cohort and must fold bitwise like the materialized path's one
  // call per member. The two accumulators are independent, so each folds
  // on its own in closed form.
  a.sum = repeated_add(a.sum, window_mss, count);
  a.sum_sq = repeated_add(a.sum_sq, window_mss * window_mss, count);
  a.samples += count;
}

void MetricScope::observe_link(int link_id, double utilization,
                               double loss_rate, double rtt_ratio) {
  AXIOMCC_EXPECTS(in_step_);
  AXIOMCC_EXPECTS(link_id >= 0 &&
                  static_cast<std::size_t>(link_id) < links_.size());
  if (current_step_ < config_.warmup_steps) return;
  LinkAccum& a = links_[static_cast<std::size_t>(link_id)];
  if (a.samples == 0) {
    a.util_min = utilization;
  } else {
    a.util_min = std::min(a.util_min, utilization);
  }
  a.loss_max = std::max(a.loss_max, loss_rate);
  a.loss_sum += loss_rate;
  a.rtt_ratio_max = std::max(a.rtt_ratio_max, rtt_ratio);
  ++a.samples;
}

void MetricScope::step_end() {
  AXIOMCC_EXPECTS(in_step_);
  in_step_ = false;
  const double total = totals_.back();
  if (current_step_ >= config_.warmup_steps) {
    if (step_lossy_) {
      ++lossy_samples_;
      if (have_prev_total_ && total > prev_total_) ++lossy_escapes_;
    }
    prev_total_ = total;
    have_prev_total_ = true;
  }
  step_lossy_ = false;
  if (config_.window_steps > 0 && run_samples_ >= config_.window_steps) {
    close_window();
  }
}

void MetricScope::finish() {
  if (finished_) return;
  finished_ = true;
  if (run_samples_ > 0) close_window();
}

double MetricScope::run_estimate(Axis axis) const {
  return series_.last(SubjectKind::kRun, -1, axis,
                      std::numeric_limits<double>::quiet_NaN());
}

double MetricScope::fast_utilization_value() const {
  // Mirror of core::measure_fast_utilization_score +
  // core::fast_utilization_coefficient, applied to the aggregate-window
  // series accumulated so far: truncate at window-cap saturation, then take
  // the worst coefficient over the three sampled start offsets.
  std::size_t n = totals_.size();
  const long warmup = config_.warmup_steps;
  if (config_.max_window_mss > 0.0) {
    const double cap = 0.99 * config_.max_window_mss;
    std::size_t truncated = n;
    for (std::size_t t = 0; t < n; ++t) {
      if (totals_[t] >= cap) {
        truncated = t;
        break;
      }
    }
    const std::size_t min_samples = static_cast<std::size_t>(warmup) + 16;
    truncated = std::max(truncated, std::min(min_samples, n));
    n = truncated;
  }
  if (warmup < 0 || n <= static_cast<std::size_t>(warmup) + 1) return 0.0;
  double alpha = kInf;
  const std::size_t starts[] = {static_cast<std::size_t>(warmup),
                                static_cast<std::size_t>(warmup) +
                                    (n - warmup) / 4,
                                static_cast<std::size_t>(warmup) +
                                    (n - warmup) / 2};
  for (std::size_t t1 : starts) {
    if (t1 + 1 >= n) continue;
    const double x1 = totals_[t1];
    double accumulated = 0.0;
    for (std::size_t t = t1; t < n; ++t) accumulated += totals_[t] - x1;
    const double dt = static_cast<double>(n - 1 - t1);
    if (dt <= 0.0) continue;
    alpha = std::min(alpha, 2.0 * accumulated / (dt * dt));
  }
  return std::max(alpha, 0.0);
}

void MetricScope::emit(SubjectKind kind, int subject, Axis axis,
                       const WindowSample& w) {
  if (recorder_ == nullptr) return;
  recorder::Event event;
  event.step = w.end_step;
  event.cls = recorder::EventClass::kMetric;
  event.code = axis_event_code(axis);
  switch (kind) {
    case SubjectKind::kRun:
      event.subject_kind = recorder::Subject::kRun;
      break;
    case SubjectKind::kClass:
      event.subject_kind = recorder::Subject::kCohort;
      break;
    case SubjectKind::kLink:
      event.subject_kind = recorder::Subject::kLink;
      break;
  }
  event.subject = subject;
  event.a = w.value;
  event.b = static_cast<double>(w.start_step);
  recorder_->emit(event);
}

void MetricScope::close_window() {
  if (run_samples_ == 0) return;
  WindowSample w;
  w.start_step = window_start_step_;
  w.end_step = current_step_;

  auto push = [&](SubjectKind kind, int subject, Axis axis, double value) {
    w.value = value;
    Channel* channel = nullptr;
    for (Channel& c : series_.channels) {
      if (c.kind == kind && c.subject == subject && c.axis == axis) {
        channel = &c;
        break;
      }
    }
    AXIOMCC_EXPECTS(channel != nullptr);
    channel->samples.push_back(w);
    emit(kind, subject, axis, w);
  };

  // Per-class means, in class order; the mean shares the post-hoc fold: a
  // serial ascending sum divided once.
  const std::size_t k = classes_.size();
  std::vector<double> means(k, 0.0);
  for (std::size_t c = 0; c < k; ++c) {
    if (classes_[c].samples > 0) {
      means[c] = classes_[c].sum / static_cast<double>(classes_[c].samples);
    }
  }

  // Metric I — efficiency: min tail aggregate over capacity, capped at 1.
  const double efficiency =
      config_.capacity_mss > 0.0
          ? std::min(total_min_ / config_.capacity_mss, 1.0)
          : 1.0;
  push(SubjectKind::kRun, -1, Axis::kEfficiency, efficiency);

  // Metric II — fast utilization (see fast_utilization_value).
  push(SubjectKind::kRun, -1, Axis::kFastUtilization,
       fast_utilization_value());

  // Metric III — loss avoidance: the worst congestion-loss rate seen.
  push(SubjectKind::kRun, -1, Axis::kLossAvoidance, loss_max_);

  // Metric IV — fairness: min/max ratio of per-class per-member means.
  double fairness = 1.0;
  if (k > 1) {
    double min_mean = kInf;
    double max_mean = -kInf;
    for (std::size_t c = 0; c < k; ++c) {
      min_mean = std::min(min_mean, means[c]);
      max_mean = std::max(max_mean, means[c]);
    }
    if (max_mean > 0.0) fairness = min_mean / max_mean;
  }
  push(SubjectKind::kRun, -1, Axis::kFairness, fairness);

  // Metric V — convergence: the worst per-class deviation band. The min
  // over samples of min(x/x*, 2−x/x*) equals min(min/x*, 2−max/x*) because
  // x* (the mean) always lies within [min, max].
  double convergence = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (classes_[c].samples == 0) continue;
    const double star = means[c];
    if (star <= 0.0) continue;
    convergence = std::min(convergence, classes_[c].min / star);
    convergence = std::min(convergence, 2.0 - classes_[c].max / star);
  }
  convergence = std::clamp(convergence, 0.0, 1.0);
  push(SubjectKind::kRun, -1, Axis::kConvergence, convergence);

  // Metric VI — robustness proxy: of the samples that carried loss, the
  // fraction where the aggregate window still grew (1 when loss-free). The
  // paper's loss-rate tolerance needs a probe ladder, not one run; this is
  // the online signal that the protocol keeps escaping under the loss it
  // actually saw. Counted run-to-date, not per window, so late windows
  // reflect the whole history.
  const double robustness =
      lossy_samples_ == 0
          ? 1.0
          : static_cast<double>(lossy_escapes_) /
                static_cast<double>(lossy_samples_);
  push(SubjectKind::kRun, -1, Axis::kRobustness, robustness);

  // Metric VII — friendliness: worst Q-class mean over worst P-class mean.
  double friendliness = 1.0;
  const std::size_t p = config_.p_classes > 0
                            ? static_cast<std::size_t>(config_.p_classes)
                            : 0;
  if (p > 0 && p < k) {
    double worst_p = 0.0;
    for (std::size_t c = 0; c < p; ++c) worst_p = std::max(worst_p, means[c]);
    double worst_q = kInf;
    for (std::size_t c = p; c < k; ++c) worst_q = std::min(worst_q, means[c]);
    if (worst_p > 0.0) friendliness = worst_q / worst_p;
  }
  push(SubjectKind::kRun, -1, Axis::kTcpFriendliness, friendliness);

  // Metric VIII — latency avoidance: worst RTT inflation over the baseline.
  const double latency =
      config_.min_rtt_seconds > 0.0
          ? std::max(0.0, rtt_max_ / config_.min_rtt_seconds - 1.0)
          : 0.0;
  push(SubjectKind::kRun, -1, Axis::kLatencyAvoidance, latency);

  // Jain index over the per-class means (diagnostic; no recorder event).
  {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      sum += means[c];
      sum_sq += means[c] * means[c];
    }
    w.value = (k == 0 || sum_sq <= 0.0)
                  ? 1.0
                  : (sum * sum) / (static_cast<double>(k) * sum_sq);
    series_.jain.push_back(w);
  }

  // Per-class channels.
  for (std::size_t c = 0; c < k; ++c) {
    const ClassAccum& a = classes_[c];
    if (a.samples == 0) continue;
    push(SubjectKind::kClass, static_cast<int>(c), Axis::kLossAvoidance,
         a.loss_max);
    double band = 1.0;
    if (means[c] > 0.0) {
      band = std::clamp(
          std::min(a.min / means[c], 2.0 - a.max / means[c]), 0.0, 1.0);
    }
    push(SubjectKind::kClass, static_cast<int>(c), Axis::kConvergence, band);
  }

  // Per-link channels.
  for (std::size_t l = 0; l < links_.size(); ++l) {
    const LinkAccum& a = links_[l];
    if (a.samples == 0) continue;
    push(SubjectKind::kLink, static_cast<int>(l), Axis::kEfficiency,
         std::min(a.util_min, 1.0));
    push(SubjectKind::kLink, static_cast<int>(l), Axis::kLossAvoidance,
         a.loss_max);
    push(SubjectKind::kLink, static_cast<int>(l), Axis::kLatencyAvoidance,
         std::max(0.0, a.rtt_ratio_max - 1.0));
  }

  // Reset the window accumulators (the robustness counters and the
  // fast-utilization history intentionally span windows).
  for (ClassAccum& a : classes_) a = ClassAccum{};
  for (LinkAccum& a : links_) a = LinkAccum{};
  total_min_ = 0.0;
  loss_max_ = 0.0;
  loss_sum_ = 0.0;
  rtt_max_ = 0.0;
  run_samples_ = 0;
}

}  // namespace axiomcc::scope
