// cubic.h — TCP CUBIC in the paper's discrete formulation, CUBIC(c, b).
//
// From the paper (Section 2):
//   no loss:  x(t+1) = x_max + c * (T - K)^3,  K = (x_max (1-b) / c)^(1/3)
//   loss:     x(t+1) = b * x_max              (and x_max is reset to x(t))
// where x_max is the window at the last loss and T counts steps since then.
// The Linux default corresponds roughly to CUBIC(0.4, 0.8).
#pragma once

#include <memory>
#include <string>

#include "cc/protocol.h"

namespace axiomcc::cc {

class Cubic final : public Protocol {
 public:
  /// Requires c > 0 and 0 < b < 1.
  Cubic(double c, double b);

  double next_window(const Observation& obs) override;
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Protocol> clone() const override;
  void reset() override;

  [[nodiscard]] double scale() const { return c_; }
  [[nodiscard]] double decrease() const { return b_; }

 private:
  double c_;
  double b_;

  // Per-connection history.
  bool seen_first_step_ = false;
  double x_max_ = 0.0;   ///< window at the last loss (or initial window).
  long steps_since_loss_ = 0;
  /// K = cbrt(x_max (1-b) / c), cached: x_max_ changes only on a loss, so
  /// a loss marks it stale and the next loss-free step recomputes it. A
  /// loss step never pays for the cbrt.
  double plateau_ = 0.0;
  bool plateau_stale_ = true;
};

}  // namespace axiomcc::cc
