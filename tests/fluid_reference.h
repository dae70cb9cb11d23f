// fluid_reference.h — a plain per-sender fluid tick loop, kept as a test
// oracle for fluid::FluidSimulation.
//
// One virtual Protocol::next_window call per sender per step, every sender
// materialized, no cohorts, kernels, recorder, scope or telemetry: the
// paper's Section 2 model written as directly as possible. FluidSimulation
// must reproduce its traces byte for byte at every cohort width.
#pragma once

#include <vector>

#include "fluid/loss_model.h"
#include "fluid/sim.h"

namespace axiomcc::fluid {

/// `count` senders sharing `spec`; each member runs its own clone of
/// spec.protocol.
struct ReferenceGroup {
  SenderSpec spec;
  long count = 1;
};

/// Runs `groups` (sender ids in insertion order) on `link` for
/// options.steps steps. Honors steps, the window clamp, trace_detail and
/// tracked_senders; `injector` (null = no injected loss) is sampled for
/// every active sender in ascending order each step.
[[nodiscard]] Trace run_reference(const LinkParams& link,
                                  const SimOptions& options,
                                  const std::vector<ReferenceGroup>& groups,
                                  LossInjector* injector = nullptr);

}  // namespace axiomcc::fluid
