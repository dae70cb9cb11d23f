#include "engine/topology.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string>

#include "cc/registry.h"
#include "util/check.h"
#include "util/rng.h"

namespace axiomcc::engine {
namespace {

bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

void validate_link(const fluid::LinkParams& link, const std::string& label) {
  const double bandwidth = link.bandwidth.mss_per_sec();
  if (!(std::isfinite(bandwidth) && bandwidth > 0.0)) {
    throw ScenarioError(label + " bandwidth must be finite and positive");
  }
  const double delay = link.propagation_delay.value();
  if (!(std::isfinite(delay) && delay > 0.0)) {
    throw ScenarioError(label +
                        " propagation delay must be finite and positive");
  }
  if (!(std::isfinite(link.buffer_mss) && link.buffer_mss >= 0.0)) {
    throw ScenarioError(label + " buffer must be finite and non-negative");
  }
}

void validate_horizon(long steps) {
  if (steps <= 0) {
    throw ScenarioError("steps must be positive, got " + std::to_string(steps));
  }
}

void validate_scenario(const ScenarioSpec& spec) {
  validate_horizon(spec.steps);
  validate_link(spec.link, "link");
  const int nl = spec.topology.num_links();
  for (int l = 0; l < nl; ++l) {
    validate_link(spec.topology.links[static_cast<std::size_t>(l)],
                  "topology link " + std::to_string(l));
  }
  if (!(spec.tail_fraction >= 0.0 && spec.tail_fraction < 1.0)) {
    throw ScenarioError("tail fraction must be in [0, 1), got " +
                        std::to_string(spec.tail_fraction));
  }
  for (std::size_t si = 0; si < spec.senders.size(); ++si) {
    const SenderSlot& slot = spec.senders[si];
    const std::string label = "sender slot " + std::to_string(si);
    if ((slot.prototype == nullptr) == slot.protocol.empty()) {
      throw ScenarioError(label +
                          " must name its protocol by exactly one of a "
                          "prototype and a protocol spec");
    }
    if (slot.prototype == nullptr) {
      try {
        (void)cc::make_protocol(slot.protocol);
      } catch (const std::exception& e) {
        throw ScenarioError(label + " protocol '" + slot.protocol +
                            "': " + e.what());
      }
    }
    // A slot that runs as written must stay active for at least one whole
    // step once its window is rounded. Workload templates are exempt: the
    // generators drop or lengthen windows that would be shorter.
    if (spec.workload.empty() &&
        !(std::isfinite(slot.start_step) && slot.start_step >= 0.0 &&
          std::isfinite(slot.stop_step) &&
          (slot.stop_step < 0.0 ||
           std::lround(slot.stop_step) > std::lround(slot.start_step)))) {
      throw ScenarioError(label + " activity window [" +
                          std::to_string(slot.start_step) + ", " +
                          std::to_string(slot.stop_step) +
                          ") must be finite, start at or after step 0 and "
                          "last at least one step");
    }
    if (spec.topology.empty()) {
      if (!slot.route.empty()) {
        throw ScenarioError(label +
                            " carries a route but the scenario has no "
                            "topology (single-link mode routes over the one "
                            "implicit link)");
      }
      continue;
    }
    if (slot.route.empty()) {
      throw ScenarioError(label +
                          " has an empty route; topology scenarios must "
                          "route every sender over at least one link");
    }
    std::vector<char> seen(static_cast<std::size_t>(nl), 0);
    for (const int link_id : slot.route) {
      if (link_id < 0 || link_id >= nl) {
        throw ScenarioError(label + " routes over unknown link id " +
                            std::to_string(link_id) + " (topology has " +
                            std::to_string(nl) + " links)");
      }
      if (seen[static_cast<std::size_t>(link_id)]) {
        throw ScenarioError(label + " repeats link id " +
                            std::to_string(link_id) +
                            " on its route; routes must be loop-free");
      }
      seen[static_cast<std::size_t>(link_id)] = 1;
    }
  }
  validate_workload(spec.workload);
  validate_loss(spec.loss);
  validate_schedule(spec.bandwidth_scale, "bandwidth schedule");
  validate_schedule(spec.rtt_scale, "RTT schedule");
}

void validate_workload(const WorkloadSpec& workload) {
  if (workload.empty()) return;
  if (workload.flows < 1) {
    throw ScenarioError("workload needs at least one generated flow");
  }
  if (workload.kind == WorkloadKind::kIncast &&
      !(std::isfinite(workload.spread_steps) && workload.spread_steps >= 0.0)) {
    throw ScenarioError("incast arrival spread must be finite and >= 0");
  }
  if (workload.kind == WorkloadKind::kOnOffHeavyTail &&
      !(positive_finite(workload.mean_on_steps) &&
        positive_finite(workload.mean_off_steps) &&
        positive_finite(workload.alpha))) {
    throw ScenarioError(
        "on-off workload durations and Pareto shape must be positive");
  }
}

void validate_loss(const fluid::LossSpec& loss) {
  const auto require = [](bool ok, const char* what, const char* range,
                          double v) {
    if (!ok) {
      throw ScenarioError(std::string(what) + " must be in " + range +
                          ", got " + std::to_string(v));
    }
  };
  const auto rate = [&require](double v, const char* what) {
    require(v >= 0.0 && v < 1.0, what, "[0, 1)", v);
  };
  const auto prob = [&require](double v, const char* what) {
    require(v >= 0.0 && v <= 1.0, what, "[0, 1]", v);
  };
  using Kind = fluid::LossSpec::Kind;
  switch (loss.kind) {
    case Kind::kNone:
      break;
    case Kind::kConstant:
      rate(loss.rate, "constant loss rate");
      break;
    case Kind::kBernoulli:
      prob(loss.prob, "bernoulli episode probability");
      rate(loss.rate, "bernoulli episode rate");
      break;
    case Kind::kStorm:
      if (!(loss.start >= 0 && loss.start < loss.end)) {
        throw ScenarioError("storm window [" + std::to_string(loss.start) +
                            ", " + std::to_string(loss.end) +
                            ") must satisfy 0 <= start < end");
      }
      [[fallthrough]];
    case Kind::kGilbertElliott:
      prob(loss.p_gb, "gilbert p_good_to_bad");
      prob(loss.p_bg, "gilbert p_bad_to_good");
      rate(loss.good_rate, "gilbert good-state rate");
      rate(loss.bad_rate, "gilbert bad-state rate");
      break;
  }
}

void validate_schedule(const fluid::Schedule& schedule,
                       const std::string& label) {
  long prev = -1;
  for (const fluid::Schedule::Point& p : schedule.points) {
    if (p.at < 0) {
      throw ScenarioError(label + " breakpoint at negative step " +
                          std::to_string(p.at));
    }
    if (p.at <= prev) {
      throw ScenarioError(label + " breakpoints out of order at step " +
                          std::to_string(p.at) +
                          " (timestamps must strictly increase)");
    }
    if (!positive_finite(p.scale)) {
      throw ScenarioError(label + " scale must be positive and finite, got " +
                          std::to_string(p.scale));
    }
    prev = p.at;
  }
}

TopologySpec dumbbell_topology(const fluid::LinkParams& link) {
  TopologySpec topology;
  topology.links.push_back(link);
  return topology;
}

void apply_parking_lot(ScenarioSpec& spec, const fluid::LinkParams& per_link,
                       int bottlenecks, const cc::Protocol& prototype,
                       long cross_flows_per_link, double initial_window_mss) {
  AXIOMCC_EXPECTS(bottlenecks >= 1);
  AXIOMCC_EXPECTS(cross_flows_per_link >= 0);
  AXIOMCC_EXPECTS(initial_window_mss >= 0.0);

  spec.topology.links.assign(static_cast<std::size_t>(bottlenecks), per_link);
  spec.senders.clear();

  std::vector<int> long_route(static_cast<std::size_t>(bottlenecks));
  for (int l = 0; l < bottlenecks; ++l) {
    long_route[static_cast<std::size_t>(l)] = l;
  }
  spec.add_routed_sender(prototype, std::move(long_route), initial_window_mss);
  for (int l = 0; l < bottlenecks; ++l) {
    for (long j = 0; j < cross_flows_per_link; ++j) {
      spec.add_routed_sender(prototype, {l}, initial_window_mss);
    }
  }
}

int FatTreeTopology::up_link(int leaf, int spine) const {
  AXIOMCC_EXPECTS(leaf >= 0 && leaf < leaves);
  AXIOMCC_EXPECTS(spine >= 0 && spine < spines);
  return leaf * spines + spine;
}

int FatTreeTopology::down_link(int spine, int leaf) const {
  AXIOMCC_EXPECTS(leaf >= 0 && leaf < leaves);
  AXIOMCC_EXPECTS(spine >= 0 && spine < spines);
  return leaves * spines + spine * leaves + leaf;
}

std::vector<int> FatTreeTopology::route(long flow_index, int src_leaf,
                                        int dst_leaf,
                                        std::uint64_t seed) const {
  AXIOMCC_EXPECTS(src_leaf >= 0 && src_leaf < leaves);
  AXIOMCC_EXPECTS(dst_leaf >= 0 && dst_leaf < leaves);
  AXIOMCC_EXPECTS_MSG(src_leaf != dst_leaf,
                      "intra-leaf flows never cross the fabric");
  // ECMP: hash the flow identity into a spine choice. Each splitmix round
  // mixes one component so (seed, flow, src, dst) permutations decorrelate.
  std::uint64_t s = seed;
  s ^= static_cast<std::uint64_t>(flow_index) + 0x9e3779b97f4a7c15ull;
  (void)splitmix64_next(s);
  s ^= static_cast<std::uint64_t>(src_leaf) * 0xff51afd7ed558ccdull;
  (void)splitmix64_next(s);
  s ^= static_cast<std::uint64_t>(dst_leaf) * 0xc4ceb9fe1a85ec53ull;
  const std::uint64_t hash = splitmix64_next(s);
  const int spine = static_cast<int>(hash % static_cast<std::uint64_t>(spines));
  return {up_link(src_leaf, spine), down_link(spine, dst_leaf)};
}

FatTreeTopology make_fat_tree(int leaves, int spines,
                              const fluid::LinkParams& per_link) {
  AXIOMCC_EXPECTS(leaves >= 2);
  AXIOMCC_EXPECTS(spines >= 1);
  FatTreeTopology tree;
  tree.leaves = leaves;
  tree.spines = spines;
  // Up links first (leaf-major), then down links (spine-major) — the layout
  // up_link/down_link index into.
  tree.topology.links.assign(static_cast<std::size_t>(2 * leaves * spines),
                             per_link);
  return tree;
}

namespace {

/// The FluidLink over `params` after the typed check both backends run, so
/// sizing a scenario they would reject throws their ScenarioError rather
/// than FluidLink's contract violation.
fluid::FluidLink checked_link(const fluid::LinkParams& params) {
  validate_link(params, "link");
  return fluid::FluidLink(params);
}

}  // namespace

double scenario_capacity_mss(const ScenarioSpec& spec) {
  if (spec.topology.empty()) {
    return checked_link(spec.link).capacity_mss();
  }
  double min_capacity = std::numeric_limits<double>::infinity();
  for (const fluid::LinkParams& params : spec.topology.links) {
    min_capacity = std::min(min_capacity, checked_link(params).capacity_mss());
  }
  return min_capacity;
}

double scenario_min_rtt_seconds(const ScenarioSpec& spec) {
  if (spec.topology.empty()) {
    return checked_link(spec.link).min_rtt().value();
  }
  double min_rtt = std::numeric_limits<double>::infinity();
  for (const fluid::LinkParams& params : spec.topology.links) {
    min_rtt = std::min(min_rtt, checked_link(params).min_rtt().value());
  }
  return min_rtt;
}

}  // namespace axiomcc::engine
