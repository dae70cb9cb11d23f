#include "cc/cubic.h"

#include <cmath>
#include <sstream>

#include "util/check.h"

namespace axiomcc::cc {

Cubic::Cubic(double c, double b) : c_(c), b_(b) {
  AXIOMCC_EXPECTS_MSG(c > 0.0, "CUBIC scale must be positive");
  AXIOMCC_EXPECTS_MSG(b > 0.0 && b < 1.0, "CUBIC decrease factor must be in (0,1)");
}

double Cubic::next_window(const Observation& obs) {
  if (!seen_first_step_) {
    // Before any loss there is no epoch anchor. Real CUBIC enters "max
    // probing" with W_max set to the current window, which places T at the
    // curve's inflection point K so that the window grows from its current
    // value. We reproduce that by anchoring x_max at the initial window and
    // starting the epoch clock at K.
    seen_first_step_ = true;
    x_max_ = obs.window;
    plateau_ = std::cbrt(x_max_ * (1.0 - b_) / c_);
    plateau_stale_ = false;
    steps_since_loss_ = static_cast<long>(std::llround(std::ceil(plateau_)));
  }

  if (obs.loss_rate > 0.0) {
    x_max_ = obs.window;
    plateau_stale_ = true;
    steps_since_loss_ = 0;
    return b_ * x_max_;
  }

  ++steps_since_loss_;
  if (plateau_stale_) {
    plateau_ = std::cbrt(x_max_ * (1.0 - b_) / c_);
    plateau_stale_ = false;
  }
  const double t = static_cast<double>(steps_since_loss_);
  const double delta = t - plateau_;
  return x_max_ + c_ * delta * delta * delta;
}

std::string Cubic::name() const {
  std::ostringstream os;
  os << "CUBIC(" << c_ << "," << b_ << ")";
  return os.str();
}

std::unique_ptr<Protocol> Cubic::clone() const {
  return std::make_unique<Cubic>(c_, b_);
}

void Cubic::reset() {
  seen_first_step_ = false;
  x_max_ = 0.0;
  steps_since_loss_ = 0;
  plateau_stale_ = true;
}

}  // namespace axiomcc::cc
