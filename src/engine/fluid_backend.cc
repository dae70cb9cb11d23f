// fluid_backend.cc — executes a ScenarioSpec on the fluid model.
//
// Every scenario runs on one fluid::FluidSimulation built in one sequence
// (options, senders in slot order, loss injector, schedules, monitor) that
// mirrors the pre-engine call sites exactly, so a scenario run through this
// backend is bit-identical with the same scenario built against
// fluid::FluidSimulation by hand. A slot is one cohort; a topology scenario
// passes its links and each slot's route, and the simulation's routed loop
// runs one flow per cohort member, so flow ids line up with the packet
// backend's (slot order, then member order).
#include <utility>
#include <vector>

#include "engine/backend.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "fluid/sim.h"
#include "telemetry/telemetry.h"
#include "util/check.h"

namespace axiomcc::engine {

RunTrace FluidBackend::run(const ScenarioSpec& spec) const {
  AXIOMCC_EXPECTS_MSG(!spec.senders.empty(),
                      "scenario needs at least one sender");
  TELEMETRY_SPAN("engine", "fluid.run");

  validate_scenario(spec);
  const RunSlots run = make_run_slots(spec);
  // Resolve the scope's warmup from the scenario's tail fraction (the fluid
  // layer does not know it) and chain the recorder so closed windows emit as
  // kMetric events. Link-derived fields are filled by the fluid layer.
  if (spec.scope_sink != nullptr) {
    spec.scope_sink->resolve(spec.steps, spec.tail_fraction, 0.0, 0.0, 0.0);
    spec.scope_sink->set_recorder(spec.record_sink);
  }

  fluid::SimOptions options;
  options.steps = spec.steps;
  options.min_window_mss = spec.min_window_mss;
  options.max_window_mss = spec.max_window_mss;
  options.trace_detail = spec.trace_detail;
  options.tracked_senders = spec.tracked_senders;
  options.record_sink = spec.record_sink;
  options.scope_sink = spec.scope_sink;

  const bool routed = !spec.topology.empty();
  fluid::FluidSimulation sim(
      routed ? spec.topology.links : std::vector<fluid::LinkParams>{spec.link},
      options);
  for (const SenderSlot& slot : run.slots) {
    AXIOMCC_EXPECTS(slot.prototype != nullptr);
    const WholeSteps window = whole_steps(slot);
    fluid::SenderSpec fs;
    fs.protocol = slot.prototype->clone();
    fs.initial_window_mss = slot.initial_window_mss;
    fs.start_step = window.start_step;
    fs.stop_step = window.stop_step;
    fs.route = slot.route;
    // A slot is one cohort: count senders share the single cloned prototype.
    sim.add_senders(std::move(fs), slot.count);
  }
  if (!spec.loss.empty()) {
    sim.set_loss_injector(spec.loss.make_injector(spec.seed));
  }
  sim.set_bandwidth_schedule(spec.bandwidth_scale);
  sim.set_rtt_schedule(spec.rtt_scale);
  if (spec.step_monitor) sim.set_step_monitor(spec.step_monitor);

  if (routed) {
    TELEMETRY_COUNT("engine.fluid_topology_runs", 1);
  } else {
    TELEMETRY_COUNT("engine.fluid_runs", 1);
  }
  return RunTrace{sim.run(), BackendKind::kFluid, {}, -1.0};
}

const SimBackend& backend_for(BackendKind kind) {
  static const FluidBackend fluid_backend;
  static const PacketBackend packet_backend;
  if (kind == BackendKind::kFluid) return fluid_backend;
  return packet_backend;
}

}  // namespace axiomcc::engine
