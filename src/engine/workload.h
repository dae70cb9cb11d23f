// workload.h — deterministic workload expansion for ScenarioSpec.
//
// A WorkloadSpec turns each sender slot into a concrete arrival pattern:
// incast fan-in (many near-simultaneous arrivals) or heavy-tailed on-off
// sources (bounded-Pareto on-periods, exponential off-gaps — the
// websearch-style flow-size mix). Expansion is a pure function of
// (spec.workload, spec.senders, spec.steps, spec.seed): both backends call
// it and therefore simulate the SAME generated churn, which is what makes
// workload scenarios crosscheckable.
#pragma once

#include <memory>
#include <vector>

#include "cc/protocol.h"
#include "engine/scenario.h"

namespace axiomcc::engine {

/// The concrete slot list a backend should execute: spec.senders expanded
/// through spec.workload. kNone returns spec.senders verbatim (so the
/// pre-workload paths stay byte-identical). Every generated slot keeps its
/// template's prototype and route; on-off sources become one slot per
/// on-period (each on-period is a fresh connection, matching the engine's
/// churn semantics). The number of generated slots is capped — a pathological
/// parameter draw degrades to a truncated pattern, never unbounded memory.
[[nodiscard]] std::vector<SenderSlot> expand_workload(
    const ScenarioSpec& spec);

/// The slots one backend run executes, and the protocols built for them.
struct RunSlots {
  /// One prototype per spec slot that names a `protocol` spec.
  std::vector<std::unique_ptr<cc::Protocol>> protocols;
  /// spec.senders expanded through the workload; every slot's `prototype`
  /// is set (slots that named a spec point into `protocols`).
  std::vector<SenderSlot> slots;
};

/// What both backends run after validate_scenario: builds a prototype for
/// each slot that names a protocol spec, then expands the workload exactly
/// as expand_workload does. Throws ScenarioError when the expansion
/// produces no senders.
[[nodiscard]] RunSlots make_run_slots(const ScenarioSpec& spec);

}  // namespace axiomcc::engine
