// topology.h — multi-bottleneck topology builders and route validation.
//
// A ScenarioSpec with a non-empty TopologySpec runs on the routed network
// substrates (fluid::FluidNetwork / sim::MultiHopNetwork) instead of the
// single shared link. This header provides the standard shapes:
//
//   * dumbbell_topology  — the degenerate one-link network (every flow
//     routed over link 0); the packet backend runs every single-link spec
//     as this topology;
//   * apply_parking_lot  — the classic k-bottleneck parking lot: one long
//     flow over links 0..k−1 plus per-link cross traffic, the smallest
//     topology where multi-hop beat-down appears;
//   * make_fat_tree      — a two-tier leaf-spine "fat tree" with
//     ECMP-style deterministic multipath: each flow's spine is chosen by a
//     splitmix hash of (seed, flow, src, dst), so route assignment is
//     reproducible at any job count.
//
// validate_scenario is the typed guard both backends run before executing:
// malformed links, routes, schedules and loss processes raise ScenarioError
// rather than tripping a contract check (or hanging) deep inside a
// simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/scenario.h"

namespace axiomcc::engine {

/// Validates every data axis of a spec. Throws ScenarioError when
///  * `spec.steps` fails validate_horizon;
///  * `spec.link` or a topology link fails validate_link;
///  * a slot sets both or neither of `prototype` and `protocol`, or its
///    `protocol` spec does not build (unknown name, bad arguments);
///  * the topology is empty but a slot carries a route (single-link mode
///    has no link ids to route over);
///  * the topology is non-empty and a slot's route is empty, names an
///    unknown link id, or repeats a link (the packet forwarder requires
///    loop-free routes, so both backends reject them);
///  * `spec.tail_fraction` lies outside [0, 1);
///  * the workload is empty and a slot's activity window is non-finite,
///    starts before step 0 or, with `stop_step >= 0`, rounds to less than
///    one step (lround(stop) <= lround(start));
///  * the workload, loss or either schedule fails the checks below.
/// Both backends run it before building any simulator state.
void validate_scenario(const ScenarioSpec& spec);

/// Throws ScenarioError when `steps`, a run's horizon, is not positive.
void validate_horizon(long steps);

/// Throws ScenarioError when a link has a non-finite or non-positive
/// bandwidth or propagation delay, or a non-finite or negative buffer (a
/// zero buffer is valid). `label` names the link in the message.
void validate_link(const fluid::LinkParams& link, const std::string& label);

/// Throws ScenarioError when a workload is requested with a non-positive
/// flow count, a negative or non-finite incast spread, or non-positive
/// on-off durations or Pareto shape.
void validate_workload(const WorkloadSpec& workload);

/// Throws ScenarioError when a loss rate of the active kind is outside
/// [0, 1), a probability outside [0, 1], or a storm window breaks
/// 0 <= start < end.
void validate_loss(const fluid::LossSpec& loss);

/// Throws ScenarioError when a breakpoint sits at a negative step, the
/// steps do not strictly increase, or a scale is not positive and finite.
/// `label` names the schedule in the message.
void validate_schedule(const fluid::Schedule& schedule,
                       const std::string& label);

/// The one-link topology equivalent to `link` (route every flow over {0}).
[[nodiscard]] TopologySpec dumbbell_topology(const fluid::LinkParams& link);

/// Configures `spec` as the k-bottleneck parking lot over clones of
/// `prototype`: k identical links; sender slot 0 is the long flow routed
/// over all of them, followed by `cross_flows_per_link` slots per link
/// carrying the cross traffic. Replaces spec.topology and spec.senders.
/// The prototype must outlive the run (slots hold non-owning pointers).
void apply_parking_lot(ScenarioSpec& spec, const fluid::LinkParams& per_link,
                       int bottlenecks, const cc::Protocol& prototype,
                       long cross_flows_per_link = 1,
                       double initial_window_mss = 1.0);

/// A two-tier leaf-spine fat tree: `leaves` edge switches, each wired to
/// every one of `spines` core switches with an up and a down link (all
/// sharing `per_link` parameters). A leaf-to-leaf flow takes one up link
/// and one down link through a single spine — the ECMP choice.
struct FatTreeTopology {
  TopologySpec topology;
  int leaves = 0;
  int spines = 0;

  /// Link id of leaf→spine (up) and spine→leaf (down) links.
  [[nodiscard]] int up_link(int leaf, int spine) const;
  [[nodiscard]] int down_link(int spine, int leaf) const;

  /// The ECMP route for flow `flow_index` from `src_leaf` to `dst_leaf`:
  /// {up(src, s), down(s, dst)} with the spine s picked by a deterministic
  /// splitmix hash of (seed, flow_index, src, dst). Same inputs → same
  /// route, on every backend and at any job count.
  [[nodiscard]] std::vector<int> route(long flow_index, int src_leaf,
                                       int dst_leaf,
                                       std::uint64_t seed) const;
};

[[nodiscard]] FatTreeTopology make_fat_tree(int leaves, int spines,
                                            const fluid::LinkParams& per_link);

/// Scoring capacity of a spec's network in MSS: the single link's C = B·2Θ,
/// or the minimum per-link capacity of the topology (the binding
/// bottleneck, matching the routed substrates' trace conventions). The
/// guarded runner sizes its blowup/queue invariants with this. Both sizing
/// functions throw ScenarioError on a link validate_link rejects.
[[nodiscard]] double scenario_capacity_mss(const ScenarioSpec& spec);

/// Smallest per-link min-RTT of the spec's network in seconds (the single
/// link's 2Θ in single-link mode).
[[nodiscard]] double scenario_min_rtt_seconds(const ScenarioSpec& spec);

}  // namespace axiomcc::engine
