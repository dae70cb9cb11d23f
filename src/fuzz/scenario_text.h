// scenario_text.h — the `.scn` text form of an engine::ScenarioSpec.
//
// A `.scn` file is one scenario, one directive per line in a canonical
// order, so fuzz findings replay exactly and diff cleanly in review.
// parse_scenario reads it into an engine::ScenarioSpec whose sender slots
// name their protocols as cc::make_protocol specs, which makes the spec
// runnable and copyable on its own, plus the triage `expect` line, which is
// fuzz-side metadata rather than part of the run. serialize_scenario writes
// format v2, in the engine's own units (link bandwidth in MSS/s, one-way
// delay in seconds, buffer in MSS) with topology links and routes spelled
// out. The contract the corpus relies on: serialize(parse(text)) == text
// for any text serialize produced (doubles print in shortest exact form).
// docs/fuzzing.md describes the format.
#pragma once

#include <string>

#include "engine/scenario.h"

namespace axiomcc::fuzz {

/// A finding classification carried by triaged corpus entries: replaying
/// the scenario must reproduce this outcome, so a behavior change surfaces
/// as a test failure instead of silently passing.
struct ExpectDesc {
  std::string outcome;  ///< OutcomeKind name, e.g. "divergence"; "" = unset.
  std::string detail;   ///< fault kind name for fault outcomes; "" = any.

  [[nodiscard]] bool empty() const { return outcome.empty(); }

  friend bool operator==(const ExpectDesc&, const ExpectDesc&) = default;
};

/// The smallest valid fuzz scenario: the ScenarioSpec defaults (the
/// paper's 30 Mbps / 42 ms / 100 MSS link) over 400 steps with one Reno
/// sender. Directives a `.scn` file leaves out keep these values.
[[nodiscard]] engine::ScenarioSpec default_scenario();

/// A sender slot that names its protocol by spec string.
[[nodiscard]] engine::SenderSlot sender_slot(std::string protocol,
                                             double initial_window_mss = 1.0,
                                             double start_step = 0.0,
                                             double stop_step = -1.0,
                                             long count = 1);

/// Routes `spec`'s senders over its k topology links as a parking lot:
/// slot 0 is the long flow over every link, slot i >= 1 crosses link
/// (i - 1) mod k. The mutator's topology axis lays routes out this way.
void route_parking_lot(engine::ScenarioSpec& spec);

/// Renders `v` in the shortest "%.Ng" form that strtod parses back to
/// exactly `v` — what makes the scenario round-trip byte-identical.
[[nodiscard]] std::string format_double(double v);

/// Serializes `spec` as format v2 in the canonical field order, with the
/// `expect` line when `expect` is set. Every slot must name its protocol by
/// spec string; run-time fields (sinks, monitor, tracked senders, jobs) are
/// not part of the text. Output ends with a newline; the first line is the
/// header "axiomcc-scenario v2".
[[nodiscard]] std::string serialize_scenario(const engine::ScenarioSpec& spec,
                                             const ExpectDesc& expect = {});

/// Parses a v2 scenario file, storing its `expect` line in `*expect`
/// when `expect` is non-null. Throws std::invalid_argument on a missing or
/// wrong header, an unknown directive, a malformed or non-finite number, or
/// a scenario check_readable rejects. Routes, sender activity windows and
/// protocol specs are left to engine::validate_scenario, which every run
/// applies, so a file can reproduce a scenario the engine rejects.
[[nodiscard]] engine::ScenarioSpec parse_scenario(const std::string& text,
                                                  ExpectDesc* expect = nullptr);

/// The reader's checks: 0 <= min window <= max window, a tail fraction in
/// (0, 1), at least one sender, every slot naming a protocol spec with a
/// cohort count >= 1, a finite initial window >= 0 and a finite start >= 0,
/// at most 16 topology links and 256 workload flows per slot, and the
/// engine's own horizon, link, workload, loss and schedule checks. Throws
/// std::invalid_argument.
void check_readable(const engine::ScenarioSpec& spec);

}  // namespace axiomcc::fuzz
