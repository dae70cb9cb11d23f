#include "cc/highspeed.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace axiomcc::cc {

HighSpeed::HighSpeed(double low_window, double high_window,
                     double high_decrease)
    : low_window_(low_window),
      high_window_(high_window),
      high_decrease_(high_decrease),
      log_high_(std::log(high_window)),
      log_span_(std::log(high_window) - std::log(low_window)) {
  AXIOMCC_EXPECTS_MSG(low_window >= 1.0, "HighSpeed low window must be >= 1");
  AXIOMCC_EXPECTS_MSG(high_window > low_window,
                      "HighSpeed high window must exceed the low window");
  AXIOMCC_EXPECTS_MSG(high_decrease > 0.0 && high_decrease <= 0.5,
                      "HighSpeed high-window decrease must be in (0, 0.5]");
}

double HighSpeed::decrease_fraction(double window) const {
  if (window <= low_window_) return 0.5;  // Reno regime
  const double w = std::min(window, high_window_);
  const double position = log_high_ - std::log(w);
  return high_decrease_ + (0.5 - high_decrease_) * position / log_span_;
}

double HighSpeed::additive_increase(double window) const {
  if (window <= low_window_) return 1.0;  // Reno regime
  const double w = std::min(window, high_window_);
  // RFC 3649's target response function.
  const double p = 0.078 / std::pow(w, 1.2);
  const double b = decrease_fraction(w);
  return std::max(1.0, w * w * p * 2.0 * b / (2.0 - b));
}

double HighSpeed::next_window(const Observation& obs) {
  if (obs.loss_rate > 0.0) {
    return obs.window * (1.0 - decrease_fraction(obs.window));
  }
  return obs.window + additive_increase(obs.window);
}

void HighSpeed::next_window_batch(std::span<const double> window,
                                  std::span<const double> loss,
                                  std::span<const double> /*rtt*/,
                                  std::span<double> /*state*/,
                                  std::span<double> out) const {
  // The response-function helpers carry log/pow calls, so this kernel wins
  // on dispatch and locality rather than SIMD; it reuses the scalar helpers
  // to keep the arithmetic bit-identical.
  const std::size_t n = window.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = loss[i] > 0.0
                 ? window[i] * (1.0 - decrease_fraction(window[i]))
                 : window[i] + additive_increase(window[i]);
  }
}

std::string HighSpeed::name() const {
  std::ostringstream os;
  os << "HighSpeed(" << low_window_ << "," << high_window_ << ","
     << high_decrease_ << ")";
  return os.str();
}

std::unique_ptr<Protocol> HighSpeed::clone() const {
  return std::make_unique<HighSpeed>(low_window_, high_window_,
                                     high_decrease_);
}

}  // namespace axiomcc::cc
