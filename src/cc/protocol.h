// protocol.h — the congestion-control protocol interface.
//
// A protocol deterministically maps the history of a sender's windows, RTTs,
// and loss rates to the next congestion-window size (paper, Section 2). The
// simulators call next_window once per time step / RTT round; implementations
// carry their own summarized history (e.g. CUBIC's time-since-last-loss).
#pragma once

#include <memory>
#include <string>

#include "cc/observation.h"

namespace axiomcc::cc {

class BatchProtocol;  // batch.h — SoA batch execution for closed-form families

/// Abstract window-based congestion-control protocol.
///
/// Contract:
///  - next_window is called exactly once per time step, with the Observation
///    for the step that just ended, and returns the window for the next step.
///  - Implementations must be deterministic given the observation history
///    (stochastic protocols take an explicit seed at construction).
///  - The returned window may exceed simulator bounds; the simulator clamps
///    to [min_window, max_window]. Implementations must tolerate the clamped
///    value being reported back in the next Observation.
class Protocol {
 public:
  virtual ~Protocol() = default;

  Protocol() = default;
  Protocol(const Protocol&) = default;
  Protocol& operator=(const Protocol&) = default;

  /// Computes the window (MSS) for the next time step.
  virtual double next_window(const Observation& obs) = 0;

  /// True when window choices are invariant to RTT values (paper's
  /// "loss-based" notion). Latency-avoiding protocols return false.
  [[nodiscard]] virtual bool loss_based() const = 0;

  /// Human-readable name including parameters, e.g. "AIMD(1,0.5)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Deep copy, including a reset of per-connection history. Every sender in
  /// a simulation clones its own instance from a prototype.
  [[nodiscard]] virtual std::unique_ptr<Protocol> clone() const = 0;

  /// Clears per-connection history so the instance can be reused.
  virtual void reset() = 0;

  /// The protocol's SoA batch kernel, or nullptr when only per-sender
  /// next_window exists. A non-null kernel must satisfy the bit-identity
  /// contract in batch.h; the fluid simulator uses it to advance homogeneous
  /// cohorts in one pass instead of n virtual calls.
  [[nodiscard]] virtual const BatchProtocol* batch_kernel() const {
    return nullptr;
  }
};

}  // namespace axiomcc::cc
