// stats.h — numerically stable summary statistics and fairness indices.
//
// Metric estimators in src/core reduce long traces to scalar scores; the
// reductions here (Welford accumulation, exact percentiles, Jain's index,
// tail views) are the shared vocabulary for doing that.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "util/check.h"

namespace axiomcc {

/// Monotonic wall-clock stopwatch for bench instrumentation (steady_clock,
/// immune to system-time adjustments). Starts on construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Single-pass mean/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const {
    return count_ > 0 ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  [[nodiscard]] double max() const {
    return count_ > 0 ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double n1 = static_cast<double>(count_);
    const double n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * n2 / (n1 + n2);
    m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Arithmetic mean of a span; 0 for an empty span.
[[nodiscard]] inline double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// Minimum of a non-empty span.
[[nodiscard]] inline double min_of(std::span<const double> xs) {
  AXIOMCC_EXPECTS(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

/// Maximum of a non-empty span.
[[nodiscard]] inline double max_of(std::span<const double> xs) {
  AXIOMCC_EXPECTS(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

/// Exact percentile over already-sorted data (linear interpolation between
/// order statistics). `p` is in [0, 100]; the boundaries are handled
/// explicitly — p<=0 is the minimum, p>=100 the maximum, and a single
/// sample is its own every-percentile — so no index arithmetic runs at the
/// edges where floating-point rounding of the rank could step out of range.
[[nodiscard]] inline double percentile_sorted(std::span<const double> xs,
                                              double p) {
  AXIOMCC_EXPECTS(!xs.empty());
  AXIOMCC_EXPECTS(p >= 0.0 && p <= 100.0);
  const std::size_t n = xs.size();
  if (n == 1 || p <= 0.0) return xs.front();
  if (p >= 100.0) return xs.back();
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const auto lo =
      std::min(static_cast<std::size_t>(std::floor(rank)), n - 1);
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/// Exact percentile (linear interpolation between order statistics).
/// `p` is in [0, 100].
[[nodiscard]] inline double percentile(std::vector<double> xs, double p) {
  AXIOMCC_EXPECTS(!xs.empty());
  std::sort(xs.begin(), xs.end());
  return percentile_sorted(xs, p);
}

/// Median of a span (copies and sorts); even sizes average the two middle
/// order statistics. NaN for an empty span.
[[nodiscard]] inline double median_of(std::span<const double> xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

/// Median absolute deviation around `center` (pass median_of(xs) for the
/// classic MAD). A robust spread estimate: unlike stddev, one outlier in the
/// window cannot inflate it, which is what makes median ± k·MAD a usable
/// noise band for wall-clock timings. NaN for an empty span.
[[nodiscard]] inline double mad_of(std::span<const double> xs, double center) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> deviations;
  deviations.reserve(xs.size());
  for (const double x : xs) deviations.push_back(std::abs(x - center));
  return median_of(deviations);
}

/// mad_of around the span's own median.
[[nodiscard]] inline double mad_of(std::span<const double> xs) {
  return mad_of(xs, median_of(xs));
}

/// Jain's fairness index: (Σx)² / (n·Σx²). 1 when all equal, →1/n when one
/// sender dominates. Returns 1 for an empty span by convention.
[[nodiscard]] inline double jain_index(std::span<const double> xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

/// Returns the tail of `xs` after skipping the first `transient_fraction`
/// of samples. Mirrors the axioms' "there exists T such that from T onwards"
/// quantifier: we approximate T by a fixed fraction of the run.
[[nodiscard]] inline std::span<const double> tail_view(
    std::span<const double> xs, double transient_fraction) {
  AXIOMCC_EXPECTS(transient_fraction >= 0.0 && transient_fraction < 1.0);
  const auto skip = static_cast<std::size_t>(
      std::floor(static_cast<double>(xs.size()) * transient_fraction));
  return xs.subspan(std::min(skip, xs.size()));
}

/// Least-squares slope of y against index 0..n-1; 0 for fewer than 2 points.
[[nodiscard]] inline double linear_slope(std::span<const double> ys) {
  const std::size_t n = ys.size();
  if (n < 2) return 0.0;
  const double nx = static_cast<double>(n);
  const double mean_x = (nx - 1.0) / 2.0;
  const double mean_y = mean_of(ys);
  double cov = 0.0;
  double var_x = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - mean_x;
    cov += dx * (ys[i] - mean_y);
    var_x += dx * dx;
  }
  return var_x > 0.0 ? cov / var_x : 0.0;
}

}  // namespace axiomcc
