#include "fuzz/mutator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "engine/workload.h"
#include "fuzz/scenario_text.h"
#include "telemetry/telemetry.h"

namespace axiomcc::fuzz {

namespace {

using LossKind = fluid::LossSpec::Kind;
using Point = fluid::Schedule::Point;
using engine::ScenarioSpec;
using engine::SenderSlot;

/// Picks a uniformly random element.
template <typename T>
const T& pick(const std::vector<T>& values, Rng& rng) {
  return values[rng.uniform_index(values.size())];
}

/// Multiplies `v` by a random factor in [0.5, 2) — the generic "perturb
/// magnitude" move.
double perturb(double v, Rng& rng) { return v * rng.uniform(0.5, 2.0); }

/// A random breakpoint step within the run.
long random_step(const ScenarioSpec& spec, Rng& rng) {
  return static_cast<long>(
      rng.uniform_index(static_cast<std::uint64_t>(spec.steps)));
}

void mutate_schedule(fluid::Schedule& schedule, const ScenarioSpec& spec,
                     Rng& rng) {
  const std::uint64_t op = rng.uniform_index(schedule.points.empty() ? 2 : 5);
  switch (op) {
    case 0:  // add a breakpoint with a dictionary scale
      schedule.points.push_back(Point{random_step(spec, rng),
                                      pick(Mutator::scale_dictionary(), rng)});
      break;
    case 1: {  // install a canonical gauntlet shape
      const std::uint64_t shape = rng.uniform_index(3);
      const long start = random_step(spec, rng);
      const long span = std::max<long>(spec.steps / 8, 10);
      schedule.points.clear();
      if (shape == 0) {  // outage: drop to a residual, then restore
        schedule.points = {Point{start, 1e-3}, Point{start + span, 1.0}};
      } else if (shape == 1) {  // flap: square wave
        double level = 1.0;
        for (long at = start, i = 0; i < 6; ++i, at += span / 2 + 1) {
          level = level == 1.0 ? 0.05 : 1.0;
          schedule.points.push_back(Point{at, level});
        }
      } else {  // sawtooth ramp
        for (long i = 0; i < 6; ++i) {
          schedule.points.push_back(
              Point{start + i * (span / 3 + 1),
                    0.25 + 0.15 * static_cast<double>(i)});
        }
      }
      break;
    }
    case 2:  // remove a breakpoint
      schedule.points.erase(schedule.points.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.uniform_index(schedule.points.size())));
      break;
    case 3: {  // perturb a breakpoint's scale
      Point& p = schedule.points[rng.uniform_index(schedule.points.size())];
      p.scale = rng.bernoulli(0.5) ? perturb(p.scale, rng)
                                   : pick(Mutator::scale_dictionary(), rng);
      break;
    }
    case 4: {  // move a breakpoint in time
      Point& p = schedule.points[rng.uniform_index(schedule.points.size())];
      p.at = random_step(spec, rng);
      break;
    }
  }
}

void mutate_loss(fluid::LossSpec& loss, const ScenarioSpec& spec, Rng& rng) {
  if (loss.kind == LossKind::kNone || rng.bernoulli(0.4)) {
    // Switch to a fresh model with dictionary parameters.
    const std::uint64_t kind = 1 + rng.uniform_index(4);
    loss = fluid::LossSpec{};
    loss.kind = static_cast<LossKind>(kind);
    loss.rate = pick(Mutator::loss_rate_dictionary(), rng);
    loss.prob = rng.uniform(0.05, 0.5);
    loss.p_gb = rng.uniform(0.05, 0.4);
    loss.p_bg = rng.uniform(0.05, 0.4);
    loss.good_rate = rng.bernoulli(0.5) ? 0.0 : 0.01;
    loss.bad_rate = pick(Mutator::loss_rate_dictionary(), rng);
    loss.start = random_step(spec, rng);
    loss.end = loss.start + std::max<long>(spec.steps / 6, 10);
    return;
  }
  // Perturb the existing model's magnitudes.
  loss.rate = perturb(loss.rate, rng);
  loss.prob = perturb(loss.prob, rng);
  loss.p_gb = perturb(loss.p_gb, rng);
  loss.p_bg = perturb(loss.p_bg, rng);
  loss.bad_rate = perturb(loss.bad_rate, rng);
}

void mutate_sender(SenderSlot& sender, const ScenarioSpec& spec, Rng& rng) {
  switch (rng.uniform_index(5)) {
    case 0:
      sender.protocol = pick(Mutator::protocol_dictionary(), rng);
      break;
    case 1:
      sender.initial_window_mss =
          rng.bernoulli(0.5) ? perturb(sender.initial_window_mss, rng)
                             : rng.uniform(1.0, 120.0);
      break;
    case 2:
      sender.start_step = static_cast<double>(random_step(spec, rng));
      break;
    case 3:
      // A finite stop, sometimes one step after the start (the nasty
      // join-then-leave edge), sometimes forever.
      if (rng.bernoulli(0.3)) {
        sender.stop_step = -1.0;
      } else {
        sender.stop_step =
            sender.start_step +
            (rng.bernoulli(0.2) ? 1.0
                                : static_cast<double>(std::max<long>(
                                      1, random_step(spec, rng))));
      }
      break;
    case 4:
      // Expand to a homogeneous cohort (or collapse back to one sender) —
      // sanitize clamps into the limits box.
      sender.count =
          rng.bernoulli(0.3) ? 1 : 1 + static_cast<long>(rng.uniform_index(12));
      break;
  }
}

}  // namespace

ScenarioSpec Mutator::mutate(const ScenarioSpec& base, Rng& rng) const {
  ScenarioSpec out = base;
  fluid::LinkParams& link = out.link;
  const std::uint64_t edits = 1 + rng.uniform_index(3);
  for (std::uint64_t edit = 0; edit < edits; ++edit) {
    TELEMETRY_COUNT("fuzz.mutations", 1);
    switch (rng.uniform_index(13)) {
      case 0:
        link.bandwidth = Bandwidth::from_mss_per_sec(
            rng.bernoulli(0.3)
                ? rng.uniform(limits_.min_bandwidth_mss_per_sec,
                              limits_.max_bandwidth_mss_per_sec)
                : perturb(link.bandwidth.mss_per_sec(), rng));
        break;
      case 1:
        link.propagation_delay = Seconds(
            rng.bernoulli(0.3)
                ? rng.uniform(limits_.min_delay_s, limits_.max_delay_s)
                : perturb(link.propagation_delay.value(), rng));
        break;
      case 2:
        // Buffers: perturbed, or the nasty extremes (none / one packet).
        link.buffer_mss = rng.bernoulli(0.3)
                              ? (rng.bernoulli(0.5) ? 0.0 : 1.0)
                              : perturb(link.buffer_mss, rng);
        break;
      case 3:
        out.steps = static_cast<long>(
            static_cast<double>(out.steps) * rng.uniform(0.6, 1.6));
        break;
      case 4: {  // add a sender
        std::string protocol = pick(protocol_dictionary(), rng);
        const double initial = rng.uniform(1.0, 60.0);
        out.senders.push_back(
            sender_slot(std::move(protocol), initial,
                        static_cast<double>(random_step(out, rng))));
        break;
      }
      case 5:  // remove a sender
        if (out.senders.size() > 1) {
          out.senders.erase(out.senders.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.uniform_index(out.senders.size())));
        }
        break;
      case 6:
        mutate_sender(out.senders[rng.uniform_index(out.senders.size())], out,
                      rng);
        break;
      case 7:
        mutate_loss(out.loss, out, rng);
        break;
      case 8:
        mutate_schedule(
            rng.bernoulli(0.5) ? out.bandwidth_scale : out.rtt_scale, out,
            rng);
        break;
      case 9:
        out.seed = rng();
        break;
      case 10:
        // Flip the execution axis: aggregate trace retention preserves the
        // outcome class by contract, so this move widens code coverage, not
        // behavior space. It never picks last-step retention: the runner's
        // trace oracles need at least 4 steps (reduce_trace), so
        // fuzz::oracle_spec runs a last-step scenario at full detail and the
        // move would reach no new code.
        out.trace_detail = out.trace_detail == fluid::TraceDetail::kAggregate
                               ? fluid::TraceDetail::kFull
                               : fluid::TraceDetail::kAggregate;
        break;
      case 11: {
        // Walk the topology axis: collapse to the single link, or pick a
        // parking-lot depth (sanitize lays the routes out by slot order).
        const int depth =
            rng.bernoulli(0.3)
                ? 0
                : 1 + static_cast<int>(rng.uniform_index(
                          static_cast<std::uint64_t>(limits_.max_bottlenecks)));
        out.topology.links.assign(static_cast<std::size_t>(depth), link);
        break;
      }
      case 12:
        // Walk the workload axis: none, incast fan-in, or heavy-tailed
        // on-off trains; parameters perturbed when the kind survives.
        if (rng.bernoulli(0.3)) {
          out.workload = engine::WorkloadSpec{};
        } else {
          if (out.workload.empty() || rng.bernoulli(0.4)) {
            out.workload.kind = rng.bernoulli(0.5)
                                    ? engine::WorkloadKind::kIncast
                                    : engine::WorkloadKind::kOnOffHeavyTail;
          }
          out.workload.flows = 1 + static_cast<long>(rng.uniform_index(
                                       static_cast<std::uint64_t>(
                                           limits_.max_workload_flows)));
          out.workload.spread_steps = perturb(out.workload.spread_steps, rng);
          out.workload.mean_on_steps =
              perturb(out.workload.mean_on_steps, rng);
          out.workload.mean_off_steps =
              perturb(out.workload.mean_off_steps, rng);
          out.workload.alpha = rng.uniform(1.1, 2.5);
        }
        break;
    }
  }
  sanitize(out);
  return out;
}

ScenarioSpec Mutator::splice(const ScenarioSpec& a, const ScenarioSpec& b,
                             Rng& rng) const {
  TELEMETRY_COUNT("fuzz.splices", 1);
  const ScenarioSpec& x = a;
  const ScenarioSpec& y = b;
  ScenarioSpec out = default_scenario();
  const ScenarioSpec& link_src = rng.bernoulli(0.5) ? x : y;
  out.link = link_src.link;
  out.steps = (rng.bernoulli(0.5) ? x : y).steps;
  out.min_window_mss = link_src.min_window_mss;
  out.max_window_mss = link_src.max_window_mss;
  out.tail_fraction = link_src.tail_fraction;
  out.seed = (rng.bernoulli(0.5) ? x : y).seed;
  out.trace_detail = (rng.bernoulli(0.5) ? x : y).trace_detail;
  out.topology = (rng.bernoulli(0.5) ? x : y).topology;
  out.workload = (rng.bernoulli(0.5) ? x : y).workload;
  out.senders = (rng.bernoulli(0.5) ? x : y).senders;
  out.loss = (rng.bernoulli(0.5) ? x : y).loss;

  // Schedules splice at a cut step: one parent's breakpoints before the
  // cut, the other's after.
  const auto splice_schedule = [&rng, &out](const fluid::Schedule& from_a,
                                            const fluid::Schedule& from_b) {
    if (rng.bernoulli(0.5)) return rng.bernoulli(0.5) ? from_a : from_b;
    const long cut = static_cast<long>(rng.uniform_index(
        static_cast<std::uint64_t>(std::max<long>(out.steps, 1))));
    fluid::Schedule spliced;
    for (const Point& p : from_a.points) {
      if (p.at < cut) spliced.points.push_back(p);
    }
    for (const Point& p : from_b.points) {
      if (p.at >= cut) spliced.points.push_back(p);
    }
    return spliced;
  };
  out.bandwidth_scale = splice_schedule(x.bandwidth_scale, y.bandwidth_scale);
  out.rtt_scale = splice_schedule(x.rtt_scale, y.rtt_scale);

  sanitize(out);
  return out;
}

void Mutator::sanitize(ScenarioSpec& spec) const {
  fluid::LinkParams& link = spec.link;
  link.bandwidth = Bandwidth::from_mss_per_sec(
      std::clamp(link.bandwidth.mss_per_sec(),
                 limits_.min_bandwidth_mss_per_sec,
                 limits_.max_bandwidth_mss_per_sec));
  link.propagation_delay = Seconds(std::clamp(
      link.propagation_delay.value(), limits_.min_delay_s,
      limits_.max_delay_s));
  link.buffer_mss = std::clamp(link.buffer_mss, 0.0, limits_.max_buffer_mss);
  spec.steps = std::clamp(spec.steps, limits_.min_steps, limits_.max_steps);
  spec.min_window_mss = std::clamp(spec.min_window_mss, 0.0, 10.0);
  spec.max_window_mss = std::clamp(spec.max_window_mss, 100.0, 1e9);
  spec.tail_fraction = std::clamp(spec.tail_fraction, 0.1, 0.9);
  // The topology axis is a parking lot over copies of `link`, so link
  // mutations reach every hop.
  const int depth =
      std::clamp(spec.topology.num_links(), 0, limits_.max_bottlenecks);
  spec.topology.links.assign(static_cast<std::size_t>(depth), link);

  if (spec.senders.empty()) spec.senders.push_back(sender_slot("reno"));
  if (spec.senders.size() > limits_.max_senders) {
    spec.senders.resize(limits_.max_senders);
  }
  const double max_step = static_cast<double>(spec.steps);
  // Cohort clamp: each slot into [1, max_cohort_count], and the expanded
  // population into max_total_senders — later slots give way first, but
  // every slot keeps at least one sender.
  long budget = std::max<long>(limits_.max_total_senders,
                               static_cast<long>(spec.senders.size()));
  long slots_left = static_cast<long>(spec.senders.size());
  for (SenderSlot& s : spec.senders) {
    --slots_left;
    s.count = std::clamp<long>(s.count, 1, limits_.max_cohort_count);
    s.count = std::min(s.count, std::max<long>(1, budget - slots_left));
    budget -= s.count;
    s.initial_window_mss =
        std::clamp(s.initial_window_mss, 1.0, limits_.max_initial_window_mss);
    s.start_step = std::clamp(s.start_step, 0.0, max_step);
    if (s.stop_step >= 0.0) {
      // At least one whole step: engine::validate_scenario rejects shorter
      // windows.
      s.stop_step =
          std::max(std::min(s.stop_step, max_step), s.start_step + 1.0);
    } else {
      s.stop_step = -1.0;
    }
    s.route.clear();
  }
  if (depth > 0) route_parking_lot(spec);

  // Canonicalize the workload descriptor like the loss one below: only the
  // active kind's parameters survive, so two specs that serialize
  // identically hold identical workloads. Generated flows multiply the slot
  // population, so the per-slot flow count is additionally capped to keep
  // the expanded population inside max_total_senders.
  {
    const long population = spec.total_senders();
    engine::WorkloadSpec workload;
    workload.kind = spec.workload.kind;
    if (workload.kind != engine::WorkloadKind::kNone) {
      const long flow_cap =
          std::max<long>(1, limits_.max_total_senders /
                                std::max<long>(population, 1));
      workload.flows = std::clamp<long>(
          spec.workload.flows, 1,
          std::min(limits_.max_workload_flows, flow_cap));
      if (workload.kind == engine::WorkloadKind::kIncast) {
        workload.spread_steps =
            std::clamp(spec.workload.spread_steps, 0.0, max_step);
      } else {
        // Bound the on/off means away from zero so a run spawns at most a
        // handful of trains per flow (engine caps generated slots anyway).
        workload.mean_on_steps =
            std::clamp(spec.workload.mean_on_steps, 10.0, max_step);
        workload.mean_off_steps =
            std::clamp(spec.workload.mean_off_steps, 10.0, max_step);
        workload.alpha = std::clamp(spec.workload.alpha, 1.05, 3.0);
      }
    }
    spec.workload = workload;
  }

  // Canonicalize the loss descriptor: clamp the active fields and zero the
  // inactive ones, so two specs that serialize identically hold identical
  // loss processes (the text format only carries the active kind's
  // parameters).
  fluid::LossSpec loss;
  loss.kind = spec.loss.kind;
  switch (loss.kind) {
    case LossKind::kNone:
      break;
    case LossKind::kConstant:
      loss.rate = std::clamp(spec.loss.rate, 0.0, limits_.max_loss_rate);
      break;
    case LossKind::kBernoulli:
      loss.prob = std::clamp(spec.loss.prob, 0.0, 1.0);
      loss.rate = std::clamp(spec.loss.rate, 0.0, limits_.max_loss_rate);
      break;
    case LossKind::kStorm:
      // A storm window is non-empty: 0 <= start < end <= steps.
      loss.start = std::clamp<long>(spec.loss.start, 0, spec.steps - 1);
      loss.end = std::clamp<long>(spec.loss.end, loss.start + 1, spec.steps);
      [[fallthrough]];
    case LossKind::kGilbertElliott:
      loss.p_gb = std::clamp(spec.loss.p_gb, 0.0, 1.0);
      loss.p_bg = std::clamp(spec.loss.p_bg, 0.0, 1.0);
      loss.good_rate =
          std::clamp(spec.loss.good_rate, 0.0, limits_.max_loss_rate);
      loss.bad_rate =
          std::clamp(spec.loss.bad_rate, 0.0, limits_.max_loss_rate);
      break;
  }
  spec.loss = loss;

  for (fluid::Schedule* schedule : {&spec.bandwidth_scale, &spec.rtt_scale}) {
    std::vector<Point>& points = schedule->points;
    for (Point& p : points) {
      p.at = std::clamp<long>(p.at, 0, spec.steps - 1);
      p.scale = std::clamp(p.scale, limits_.min_scale, limits_.max_scale);
    }
    std::sort(points.begin(), points.end(),
              [](const Point& a, const Point& b) { return a.at < b.at; });
    // Strictly increasing timestamps: keep the last point written at each
    // step (later mutations win).
    std::vector<Point> unique;
    unique.reserve(points.size());
    for (const Point& p : points) {
      if (!unique.empty() && unique.back().at == p.at) {
        unique.back() = p;
      } else {
        unique.push_back(p);
      }
    }
    points = std::move(unique);
    if (points.size() > limits_.max_schedule_points) {
      points.resize(limits_.max_schedule_points);
    }
  }

  // A workload whose draws land no arrival inside the horizon (an on-off
  // slot starting near the end, an incast spread past a slot's stop) would
  // leave the run without senders; the slots then run as written.
  if (!spec.workload.empty() && engine::expand_workload(spec).empty()) {
    spec.workload = engine::WorkloadSpec{};
  }
}

std::vector<ScenarioSpec> Mutator::seed_corpus() {
  std::vector<ScenarioSpec> seeds;
  const auto seed = [&seeds](std::vector<SenderSlot> senders) -> ScenarioSpec& {
    seeds.push_back(default_scenario());
    seeds.back().senders = std::move(senders);
    return seeds.back();
  };

  // Plain homogeneous baseline.
  seed({sender_slot("reno", 1.0), sender_slot("reno", 40.0)});
  // Deep mid-run outage.
  seed({sender_slot("aimd(1,0.5)", 1.0), sender_slot("aimd(1,0.5)", 30.0)})
      .bandwidth_scale.points = {Point{150, 1e-3}, Point{200, 1.0}};
  {  // Link flap (square wave).
    ScenarioSpec& d =
        seed({sender_slot("cubic(0.4,0.8)", 1.0), sender_slot("reno", 20.0)});
    for (long i = 0; i < 8; ++i) {
      d.bandwidth_scale.points.push_back(
          Point{100 + i * 25, i % 2 == 0 ? 0.05 : 1.0});
    }
  }
  {  // Loss storm over a protocol mix.
    ScenarioSpec& d = seed(
        {sender_slot("mimd(1.01,0.875)", 1.0), sender_slot("aimd(1,0.5)", 20.0)});
    d.loss.kind = LossKind::kStorm;
    d.loss.start = 120;
    d.loss.end = 240;
    d.loss.p_gb = 0.2;
    d.loss.p_bg = 0.3;
    d.loss.good_rate = 0.0;
    d.loss.bad_rate = 0.3;
  }
  // Persistent RTT inflation step.
  seed({sender_slot("vegas(2,4)", 1.0), sender_slot("reno", 10.0)})
      .rtt_scale.points = {Point{200, 3.0}};
  // Flow churn: staggered joins and leaves over a standing flow.
  seed({sender_slot("reno", 1.0),
        sender_slot("cubic(0.4,0.8)", 1.0, 80.0, 280.0),
        sender_slot("aimd(1,0.5)", 1.0, 160.0, 360.0),
        sender_slot("mimd(1.01,0.875)", 1.0, 240.0)});
  {  // Constant random loss (the Metric VI shape) on a lone sender.
    ScenarioSpec& d = seed({sender_slot("robust_aimd(1,0.8,0.01)", 1.0)});
    d.loss.kind = LossKind::kConstant;
    d.loss.rate = 0.05;
  }
  {  // Bursty wireless-style loss under a BBR-like/PCC mix.
    ScenarioSpec& d = seed({sender_slot("bbr", 1.0), sender_slot("pcc", 10.0)});
    d.loss.kind = LossKind::kBernoulli;
    d.loss.prob = 0.1;
    d.loss.rate = 0.3;
  }
  // Two-bottleneck parking lot: slot 0 is the long flow over both hops, the
  // cross flows each pin one bottleneck (sanitize derives the routes).
  seed({sender_slot("reno"), sender_slot("reno"), sender_slot("reno")})
      .topology.links.resize(2);
  {  // Incast fan-in: one slot fanned out into near-simultaneous arrivals.
    ScenarioSpec& d = seed({sender_slot("cubic(0.4,0.8)", 1.0, 40.0)});
    d.workload.kind = engine::WorkloadKind::kIncast;
    d.workload.flows = 4;
    d.workload.spread_steps = 16.0;
  }
  // A homogeneous cohort with an aggregate trace — seeds the execution-axis
  // space (uniform cohorts + population statistics).
  seed({sender_slot("aimd(1,0.5)", 1.0, 0.0, -1.0, 8),
        sender_slot("cubic(0.4,0.8)", 20.0)})
      .trace_detail = fluid::TraceDetail::kAggregate;

  Mutator mutator;
  for (ScenarioSpec& d : seeds) mutator.sanitize(d);
  return seeds;
}

const std::vector<std::string>& Mutator::protocol_dictionary() {
  static const std::vector<std::string> dictionary{
      "reno",
      "aimd(1,0.5)",
      "aimd(10,0.9)",
      "aimd(0.2,0.1)",
      "mimd(1.01,0.875)",
      "mimd(1.25,0.5)",
      "bin(1,1,1,0.5)",
      "bin(1,1,0.5,0.5)",
      "cubic(0.4,0.8)",
      "cubic(4,0.9)",
      "robust_aimd(1,0.8,0.01)",
      "vegas(2,4)",
      "pcc",
      "bbr",
      "cautious",
      "highspeed",
      "westwood",
      "illinois",
      "veno",
      "scalable",
      "cubic-linux",
  };
  return dictionary;
}

const std::vector<double>& Mutator::scale_dictionary() {
  static const std::vector<double> dictionary{
      1e-3, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.5, 2.0, 4.0, 8.0};
  return dictionary;
}

const std::vector<double>& Mutator::loss_rate_dictionary() {
  static const std::vector<double> dictionary{0.001, 0.01, 0.05,
                                              0.1,   0.3,  0.5};
  return dictionary;
}

}  // namespace axiomcc::fuzz
