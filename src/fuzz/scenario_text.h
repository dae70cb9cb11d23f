// scenario_text.h — the fuzzer's scenario and its text format.
//
// ScenarioDesc is what the fuzzer mutates and writes to disk. Schedules,
// loss and workload are the engine's own data types (fluid::Schedule,
// fluid::LossSpec, engine::WorkloadSpec); what the desc adds over an
// engine::ScenarioSpec is protocols as spec strings, the parking-lot depth
// as one scalar, and the triage expectation. A scenario serializes to a
// deterministic one-per-file text format, parses back exactly, and
// compiles to a ScenarioSpec for either backend. The contract the corpus relies
// on: serialize(parse(text)) == text for any text serialize produced
// (byte-identical round-trip — doubles are printed in shortest exact form).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "engine/scenario.h"

namespace axiomcc::fuzz {

/// One sender slot, with the protocol as a cc::make_protocol spec string.
/// `count` > 1 makes the slot a homogeneous cohort (engine::SenderSlot's
/// cohort expansion — the fluid backend keeps it as one cohort, the
/// packet backend adds `count` flows).
struct SenderDesc {
  std::string protocol = "reno";
  double initial_window_mss = 1.0;
  double start_step = 0.0;
  double stop_step = -1.0;  ///< negative: stays until the end of the run.
  long count = 1;

  friend bool operator==(const SenderDesc&, const SenderDesc&) = default;
};

/// A finding classification carried by triaged corpus entries: replaying
/// the scenario must reproduce this outcome, so a behavior change surfaces
/// as a test failure instead of silently passing.
struct ExpectDesc {
  std::string outcome;  ///< OutcomeKind name, e.g. "divergence"; "" = unset.
  std::string detail;   ///< fault kind name for fault outcomes; "" = any.

  [[nodiscard]] bool empty() const { return outcome.empty(); }

  friend bool operator==(const ExpectDesc&, const ExpectDesc&) = default;
};

/// Everything a fuzz input describes. Defaults are the paper's standard
/// link with one Reno sender — the smallest valid scenario.
struct ScenarioDesc {
  double bandwidth_mbps = 30.0;
  double rtt_ms = 42.0;
  double buffer_mss = 100.0;
  long steps = 400;
  double min_window_mss = 1.0;
  double max_window_mss = 1e9;
  double tail_fraction = 0.5;
  std::uint64_t seed = 42;
  /// Execution axis: an aggregate trace (per-step population statistics
  /// plus tracked series). It is byte-identity-preserving by contract, so it
  /// changes which code runs (the fluid backend's uniform cohorts), never
  /// the expected outcome class — the axis exists to drag that machinery
  /// through the fuzzer's scenario space.
  bool aggregate_trace = false;
  /// 0 = the classic single shared link (`link` directive only). k >= 1
  /// compiles to a k-bottleneck parking lot (`link` replicated per hop):
  /// sender slot 0 routes over every bottleneck, slot i >= 1 crosses
  /// bottleneck (i-1) mod k. Routes are derived, not stored, so the text
  /// format stays one scalar axis the mutator can walk.
  int topology_bottlenecks = 0;
  engine::WorkloadSpec workload;
  std::vector<SenderDesc> senders{SenderDesc{}};
  fluid::LossSpec loss;
  fluid::Schedule bandwidth_scale;
  fluid::Schedule rtt_scale;
  ExpectDesc expect;

  friend bool operator==(const ScenarioDesc&, const ScenarioDesc&) = default;
};

/// Renders `v` in the shortest "%.Ng" form that strtod parses back to
/// exactly `v` — what makes the scenario round-trip byte-identical.
[[nodiscard]] std::string format_double(double v);

/// Serializes `desc` in the canonical field order. Output always ends with
/// a newline; the first line is the format header ("axiomcc-scenario v1").
[[nodiscard]] std::string serialize_scenario(const ScenarioDesc& desc);

/// Parses a scenario file. Throws std::invalid_argument on a missing or
/// wrong header, an unknown directive, a malformed or non-finite number, a
/// scenario with no senders, or any domain violation validate_scenario
/// reports.
[[nodiscard]] ScenarioDesc parse_scenario(const std::string& text);

/// Validates the domain constraints parse_scenario enforces (mutators call
/// this on freshly generated descs): the link, steps, window and tail
/// ranges, the fuzz caps (at most 16 bottlenecks, 256 workload flows per
/// slot), and the engine's own schedule, loss and workload checks
/// (engine::ScenarioError). Throws std::invalid_argument.
void validate_scenario(const ScenarioDesc& desc);

/// A ScenarioSpec plus the protocol prototypes it points into. Movable, not
/// copyable: the spec's sender slots hold raw pointers to the prototypes.
struct CompiledScenario {
  std::vector<std::unique_ptr<cc::Protocol>> prototypes;
  engine::ScenarioSpec spec;
};

/// Compiles `desc` into a runnable spec: builds each sender's protocol via
/// cc::make_protocol, derives the parking-lot routes, and copies the data
/// axes across. Throws std::invalid_argument on an invalid protocol spec or
/// domain violation (validate_scenario is applied first).
[[nodiscard]] CompiledScenario compile_scenario(const ScenarioDesc& desc);

}  // namespace axiomcc::fuzz
