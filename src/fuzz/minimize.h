// minimize.h — greedy shrinking of a finding to a small reproducer.
//
// A raw finding is whatever mutant happened to trip the oracle — typically
// carrying senders, schedule breakpoints, and loss processes irrelevant to
// the failure. The minimizer applies delta-debugging-style simplification
// passes (halve the horizon, drop senders, drop breakpoints, drop the loss
// model, round magnitudes, canonicalize the seed) and keeps an edit only if
// the shrunk scenario still reproduces the original outcome class (same
// OutcomeKind, same fault kind on the faulting side). The result is what
// gets checked into tests/corpus/ as a regression case.
#pragma once

#include "fuzz/runner.h"
#include "fuzz/scenario_text.h"

namespace axiomcc::fuzz {

struct MinimizeResult {
  engine::ScenarioSpec spec;  ///< the smallest reproducer found.
  RunOutcome outcome;         ///< its outcome (matches the original's class).
  long attempts = 0;          ///< candidate re-executions spent.
  long accepted = 0;          ///< edits that kept reproducing.
};

struct MinimizeOptions {
  long max_attempts = 160;  ///< re-execution budget.
  long min_steps = 40;      ///< horizon floor for the halving pass.
};

/// Shrinks `spec`, whose outcome class is `target` (as classified by
/// expect_for on the original run). Runs candidates with `runner_config`;
/// deterministic — no randomness is involved. Every candidate stays
/// readable from text (check_readable), so the result saves as a `.scn`.
[[nodiscard]] MinimizeResult minimize_finding(
    const engine::ScenarioSpec& spec, const ExpectDesc& target,
    const RunnerConfig& runner_config = {},
    const MinimizeOptions& options = {});

}  // namespace axiomcc::fuzz
