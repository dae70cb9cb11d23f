// highspeed.h — HighSpeed TCP (RFC 3649), a window-dependent AIMD.
//
// Below `low_window` it is exactly TCP Reno; above, the additive increase
// a(w) grows and the multiplicative decrease fraction b(w) shrinks with the
// window, following the RFC's response function p(w) = 0.078 / w^1.2:
//
//   b(w) = 0.1 + (0.5 − 0.1) · (log W_high − log w)/(log W_high − log W_low)
//   a(w) = w² · p(w) · 2·b(w) / (2 − b(w))
//
// An interesting subject for the axiomatic framework: its fast-utilization
// and TCP-friendliness scores are window-regime-dependent, so where it lands
// in the metric space depends on the link's BDP.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "cc/batch.h"
#include "cc/protocol.h"

namespace axiomcc::cc {

class HighSpeed final : public Protocol, public BatchProtocol {
 public:
  /// RFC 3649 defaults: low_window 38, high_window 83000, high_decrease 0.1.
  HighSpeed(double low_window = 38.0, double high_window = 83000.0,
            double high_decrease = 0.1);

  double next_window(const Observation& obs) override;
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Protocol> clone() const override;
  void reset() override {}
  [[nodiscard]] const BatchProtocol* batch_kernel() const override {
    return this;
  }
  void next_window_batch(std::span<const double> window,
                         std::span<const double> loss,
                         std::span<const double> rtt, std::span<double> state,
                         std::span<double> out) const override;

  /// The decrease FRACTION at window w (the window shrinks to (1−b(w))·w).
  [[nodiscard]] double decrease_fraction(double window) const;
  /// The additive increase at window w.
  [[nodiscard]] double additive_increase(double window) const;

 private:
  double low_window_;
  double high_window_;
  double high_decrease_;
  /// log W_high and log W_high − log W_low, fixed at construction.
  double log_high_;
  double log_span_;
};

}  // namespace axiomcc::cc
