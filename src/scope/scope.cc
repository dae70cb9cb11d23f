#include "scope/scope.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/repeated_add.h"
#include "util/stats.h"

namespace axiomcc::scope {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double efficiency(double total_min, double capacity) {
  return capacity > 0.0 ? std::min(total_min / capacity, 1.0) : 1.0;
}

double fast_utilization(std::span<const double> series, long warmup,
                        double max_window) {
  if (warmup < 0) return 0.0;
  const auto w = static_cast<std::size_t>(warmup);
  std::size_t n = series.size();
  if (max_window > 0.0) {
    const double cap = 0.99 * max_window;
    const auto saturated = std::find_if(series.begin(), series.end(),
                                        [cap](double x) { return x >= cap; });
    n = std::max(static_cast<std::size_t>(saturated - series.begin()),
                 std::min(w + 16, n));
  }
  if (n <= w + 1) return 0.0;
  double alpha = kInf;
  for (const std::size_t t1 : {w, w + (n - w) / 4, w + (n - w) / 2}) {
    if (t1 + 1 >= n) continue;
    const double x1 = series[t1];
    double accumulated = 0.0;
    for (std::size_t t = t1; t < n; ++t) accumulated += series[t] - x1;
    const double dt = static_cast<double>(n - 1 - t1);
    alpha = std::min(alpha, 2.0 * accumulated / (dt * dt));
  }
  return std::max(alpha, 0.0);
}

double fairness(std::span<const double> means) {
  if (means.size() < 2) return 1.0;
  const auto [lo, hi] = std::minmax_element(means.begin(), means.end());
  return *hi > 0.0 ? *lo / *hi : 1.0;
}

double convergence_band(double sum, double min, double max, long samples) {
  if (samples <= 0) return 1.0;
  const double star = sum / static_cast<double>(samples);
  if (star <= 0.0) return 1.0;
  return std::clamp(std::min(min / star, 2.0 - max / star), 0.0, 1.0);
}

double friendliness(std::span<const double> means, std::size_t p) {
  if (p == 0 || p >= means.size()) return 1.0;
  double worst_p = 0.0;  // the P sender with the LARGEST window
  for (std::size_t i = 0; i < p; ++i) worst_p = std::max(worst_p, means[i]);
  double worst_q = kInf;
  for (std::size_t j = p; j < means.size(); ++j) {
    worst_q = std::min(worst_q, means[j]);
  }
  return worst_p > 0.0 ? worst_q / worst_p : 1.0;
}

double latency_avoidance(double rtt_max, double min_rtt) {
  return min_rtt > 0.0 ? std::max(0.0, rtt_max / min_rtt - 1.0) : 0.0;
}

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
  // call per member.
  a.sum = repeated_add(a.sum, window_mss, count);
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

  // Per-class means and convergence bands, in class order; the mean shares
  // the post-hoc fold: a serial ascending sum divided once.
  const std::size_t k = classes_.size();
  std::vector<double> means(k, 0.0);
  std::vector<double> bands(k, 1.0);
  for (std::size_t c = 0; c < k; ++c) {
    const ClassAccum& a = classes_[c];
    if (a.samples == 0) continue;
    means[c] = a.sum / static_cast<double>(a.samples);
    bands[c] = convergence_band(a.sum, a.min, a.max, a.samples);
  }

  push(SubjectKind::kRun, -1, Axis::kEfficiency,
       efficiency(total_min_, config_.capacity_mss));
  push(SubjectKind::kRun, -1, Axis::kFastUtilization,
       fast_utilization(totals_, config_.warmup_steps,
                        config_.max_window_mss));
  push(SubjectKind::kRun, -1, Axis::kLossAvoidance, loss_max_);
  push(SubjectKind::kRun, -1, Axis::kFairness, fairness(means));
  double convergence = 1.0;  // the worst class band
  for (const double band : bands) convergence = std::min(convergence, band);
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

  push(SubjectKind::kRun, -1, Axis::kTcpFriendliness,
       friendliness(means, static_cast<std::size_t>(
                               std::max(config_.p_classes, 0))));
  push(SubjectKind::kRun, -1, Axis::kLatencyAvoidance,
       latency_avoidance(rtt_max_, config_.min_rtt_seconds));

  // Jain index over the per-class means (diagnostic; no recorder event).
  w.value = jain_index(means);
  series_.jain.push_back(w);

  // Per-class channels.
  for (std::size_t c = 0; c < k; ++c) {
    if (classes_[c].samples == 0) continue;
    push(SubjectKind::kClass, static_cast<int>(c), Axis::kLossAvoidance,
         classes_[c].loss_max);
    push(SubjectKind::kClass, static_cast<int>(c), Axis::kConvergence,
         bands[c]);
  }

  // Per-link channels: utilization and RTT are already ratios to the
  // link's capacity and base RTT.
  for (std::size_t l = 0; l < links_.size(); ++l) {
    const LinkAccum& a = links_[l];
    if (a.samples == 0) continue;
    push(SubjectKind::kLink, static_cast<int>(l), Axis::kEfficiency,
         efficiency(a.util_min, 1.0));
    push(SubjectKind::kLink, static_cast<int>(l), Axis::kLossAvoidance,
         a.loss_max);
    push(SubjectKind::kLink, static_cast<int>(l), Axis::kLatencyAvoidance,
         latency_avoidance(a.rtt_ratio_max, 1.0));
  }

  // Reset the window accumulators (the robustness counters and the
  // fast-utilization history intentionally span windows).
  for (ClassAccum& a : classes_) a = ClassAccum{};
  for (LinkAccum& a : links_) a = LinkAccum{};
  total_min_ = 0.0;
  loss_max_ = 0.0;
  rtt_max_ = 0.0;
  run_samples_ = 0;
}

}  // namespace axiomcc::scope
