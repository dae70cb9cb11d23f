// backend.h — the SimBackend interface and its two implementations.
//
// A SimBackend executes a ScenarioSpec on one of the repository's two
// simulators and returns a RunTrace. Callers that speak ScenarioSpec
// (core::Evaluator, the stress gauntlet, the experiment drivers) are thereby
// backend-agnostic: `--backend=packet` swaps the paper's fluid model for the
// packet-level simulator without touching the metric estimators.
//
// Contract (see docs/architecture.md for the full statement):
//  - run() is const and thread-safe: one backend instance may execute many
//    scenarios concurrently (the parallel experiment engine relies on this).
//  - Identical (spec, backend) pairs produce identical RunTraces, at any
//    job count.
//  - The returned trace has spec.senders.size() senders and at most
//    spec.steps steps (fewer when a step monitor stopped the run early).
#pragma once

#include "engine/scenario.h"

namespace axiomcc::engine {

class SimBackend {
 public:
  virtual ~SimBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] const char* name() const { return backend_name(kind()); }

  /// Executes the scenario. Requires at least one sender slot.
  [[nodiscard]] virtual RunTrace run(const ScenarioSpec& spec) const = 0;
};

/// The paper's discrete-time fluid model (fluid::FluidSimulation).
/// Reproduces the exact construction order of the pre-engine call sites, so
/// traces are bit-identical with runs that built FluidSimulation by hand.
class FluidBackend final : public SimBackend {
 public:
  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kFluid;
  }
  [[nodiscard]] RunTrace run(const ScenarioSpec& spec) const override;
};

/// The packet-level DES (sim::MultiHopNetwork; a single-link spec is its
/// one-link network). One fluid step maps to one (smallest route) RTT of
/// wall-clock time; the trace is sampled every step.
class PacketBackend final : public SimBackend {
 public:
  struct Options {
    int mss_bytes = 1500;
    /// Backend-wide cwnd cap. The fluid model tolerates windows up to 1e9
    /// MSS; a packet simulation's event count is proportional to the real
    /// window, so the effective cap is min(spec.max_window_mss, this).
    double max_window_mss = 1e7;
  };

  PacketBackend() = default;
  explicit PacketBackend(const Options& options) : options_(options) {}

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kPacket;
  }
  [[nodiscard]] RunTrace run(const ScenarioSpec& spec) const override;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  Options options_{};
};

/// Shared default-constructed backend instances (run() is const and
/// thread-safe, so one instance per kind serves the whole process).
[[nodiscard]] const SimBackend& backend_for(BackendKind kind);

}  // namespace axiomcc::engine
