// routed_workload.cc — routed: seeded multi-bottleneck scenarios run on
// both backends with a metric scope and a flight recorder attached.
//
// A round is five topology/generator pairs: parking lots with k = 2, 3 and
// 4 bottlenecks (incast, on-off, incast) and an ECMP leaf-spine fat tree
// (on-off, incast); the odd count keeps op_s_p50 inside one scenario's
// cluster of op times. One op validates and expands one scenario through
// the engine, then runs it on the fluid backend (fluid::FluidNetwork, the
// fourth tick loop's carried-load iteration) and on the packet backend
// (sim::MultiHopNetwork). This is the only workload that drives engine
// validate/expand, the routed substrates and the observability hooks; the
// core estimators and the batch path stay idle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/registry.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "sim/network.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace axiomcc;

namespace {

constexpr long kSteps = 200;
constexpr long kScopeWindowSteps = 50;
/// Interleaved repetitions of the sink-overhead probe.
constexpr int kSinkProbeReps = 4;
/// Every link: 30 ms RTT and a bandwidth-delay product (and buffer) of
/// 30 MSS, i.e. 12 Mbps.
constexpr double kLinkRttMs = 30.0;
constexpr double kLinkBdpMss = 30.0;
/// make_link_mbps: C = Mbps·1e6 / (8·1500 B) · RTT.
constexpr double kLinkMbps = kLinkBdpMss * 8.0 * 1500.0 / kLinkRttMs / 1e3;

fluid::LinkParams routed_link() {
  return fluid::make_link_mbps(kLinkMbps, kLinkRttMs, kLinkBdpMss);
}

struct Scenario {
  std::string label;
  std::unique_ptr<cc::Protocol> protocol;
  engine::ScenarioSpec spec;
  int bottlenecks = 0;  ///< parking lots only (0 for the fat tree).
};

/// What one backend run produced, reduced to a digest and its counts.
struct RunOutput {
  std::uint64_t digest = 0;
  double scope_windows = 0.0;
  double recorder_events = 0.0;
  double recorder_dropped = 0.0;
};

std::uint64_t trace_digest(const fluid::Trace& t, Digest d = {}) {
  for (int s = 0; s < t.num_senders(); ++s) {
    d.add(t.windows(s));
    d.add(t.observed_loss(s));
  }
  d.add(t.total_window());
  d.add(t.rtt_seconds());
  d.add(t.congestion_loss());
  return d.value();
}

class RoutedWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed ^ 0x726f75746564ull);
    const auto u = [&rng](double lo, double hi) { return rng.uniform(lo, hi); };
    std::vector<Scenario> scenarios;
    // Links, steps, generated flow counts and Pareto shapes are fixed, and
    // protocol parameters stay within ±10 % of the Table 1 settings, so the
    // packets (and events) an op simulates do not swing with the seed; the
    // seed picks those parameters, arrival times, on-off draws and ECMP
    // spines.
    const auto base = [&](Scenario& s, const char* label, std::string proto) {
      s.label = label;
      s.protocol = cc::make_protocol(proto);
      s.label += " " + proto;
      s.spec.steps = kSteps;
      s.spec.seed = rng();
    };
    const auto incast = [&](Scenario& s, long flows) {
      s.spec.workload.kind = engine::WorkloadKind::kIncast;
      s.spec.workload.flows = flows;
      s.spec.workload.spread_steps = u(10.0, 40.0);
    };
    const auto on_off = [&](Scenario& s, long flows) {
      s.spec.workload.kind = engine::WorkloadKind::kOnOffHeavyTail;
      s.spec.workload.flows = flows;
      s.spec.workload.mean_on_steps = 45.0;
      s.spec.workload.mean_off_steps = 40.0;
      s.spec.workload.alpha = 1.5;
    };
    const auto parking_lot = [&](int k, const char* label, std::string proto,
                                 bool use_incast) {
      Scenario s;
      base(s, label, std::move(proto));
      s.bottlenecks = k;
      if (use_incast) {
        incast(s, 8);
      } else {
        on_off(s, 8);
      }
      engine::apply_parking_lot(
          s.spec, routed_link(), k,
          *s.protocol);
      scenarios.push_back(std::move(s));
    };
    parking_lot(2, "parking-lot k=2 incast",
                spec_of("aimd", {u(0.9, 1.1), u(0.45, 0.55)}, 4), true);
    parking_lot(3, "parking-lot k=3 on-off",
                spec_of("cubic", {u(0.36, 0.44), u(0.76, 0.84)}, 4), false);
    parking_lot(4, "parking-lot k=4 incast",
                spec_of("robust_aimd", {u(0.9, 1.1), u(0.76, 0.84),
                                        u(0.008, 0.012)}, 4),
                true);
    const auto fat_tree = [&](const char* label, std::string proto,
                              bool use_incast) {
      Scenario s;
      base(s, label, std::move(proto));
      if (use_incast) {
        incast(s, 3);
      } else {
        on_off(s, 1);
      }
      const engine::FatTreeTopology tree = engine::make_fat_tree(
          4, 2, routed_link());
      s.spec.topology = tree.topology;
      const std::uint64_t ecmp_seed = rng();
      // Three templates per ordered leaf pair, each with its own ECMP spine
      // draw, so the number of busy links varies little with the seed.
      for (long f = 0; f < 36; ++f) {
        const int src = static_cast<int>(f % 4);
        const int dst = static_cast<int>((src + 1 + (f / 4) % 3) % 4);
        s.spec.add_routed_sender(*s.protocol,
                                 tree.route(f, src, dst, ecmp_seed));
      }
      scenarios.push_back(std::move(s));
    };
    fat_tree("fat-tree 4x2 ecmp on-off",
             spec_of("aimd", {u(0.9, 1.1), u(0.45, 0.55)}, 4), false);
    fat_tree("fat-tree 4x2 ecmp incast",
             spec_of("cubic", {u(0.36, 0.44), u(0.76, 0.84)}, 4), true);
    for (Scenario& s : scenarios) {
      s.spec.scope.enabled = true;
      s.spec.scope.window_steps = kScopeWindowSteps;
      s.spec.record.enabled = true;
    }

    std::vector<std::string> labels;
    for (const Scenario& s : scenarios) labels.push_back(s.label);
    if (labels != labels_) {
      reference_.assign(scenarios.size(), std::nullopt);
      sender_steps_.assign(scenarios.size(), 0.0);
      labels_ = std::move(labels);
    }
    scenarios_ = std::move(scenarios);
  }

  [[nodiscard]] std::size_t inputs() const override {
    return scenarios_.size();
  }

  void run_op(std::size_t i, long /*round*/, Spans& spans) override {
    const engine::ScenarioSpec& spec = scenarios_[i].spec;
    {
      const Span span(spans, "engine", "engine.validate");
      engine::validate_scenario(spec);
    }
    std::vector<engine::SenderSlot> slots;
    {
      const Span span(spans, "engine", "engine.expand");
      slots = engine::expand_workload(spec);
    }
    check(!slots.empty(), "workload expansion produced no flows");
    double flows = 0.0;
    double link_flows = 0.0;
    for (const engine::SenderSlot& slot : slots) {
      flows += static_cast<double>(slot.count);
      link_flows += static_cast<double>(slot.count * slot.route.size());
    }
    spans.count("engine.expanded_flows", flows);
    spans.count("fluid.network.link_flow_steps",
                link_flows * static_cast<double>(spec.steps));

    Digest d;
    double active = 0.0;
    for (const auto kind :
         {engine::BackendKind::kFluid, engine::BackendKind::kPacket}) {
      const RunOutput out = run_backend(i, kind, true, true, spans, &active);
      d.add(out.digest);
      spans.count("scope.windows", out.scope_windows);
      spans.count("recorder.events", out.recorder_events);
      spans.count("recorder.dropped", out.recorder_dropped);
    }
    if (!reference_[i]) reference_[i] = d.value();
    check(*reference_[i] == d.value(),
          scenarios_[i].label + ": outputs differ from its first run");
    sender_steps_[i] = active;
  }

  void finish(CheckTally& /*tally*/) override {}

  [[nodiscard]] double sender_steps(std::size_t i) const override {
    return sender_steps_[i];
  }

  void probe_layers(Spans& spans) override {
    // Sink overhead: each scenario on both backends with no sink, with the
    // scope only and with the recorder only, interleaved and repeated so
    // host noise hits the variants alike. Sinks must not change the
    // simulated trace.
    for (int rep = 0; rep < kSinkProbeReps; ++rep) {
      for (std::size_t i = 0; i < scenarios_.size(); ++i) {
        for (const auto kind :
             {engine::BackendKind::kFluid, engine::BackendKind::kPacket}) {
          const std::uint64_t plain =
              timed_variant(i, kind, false, false, spans);
          check(plain == timed_variant(i, kind, true, false, spans) &&
                    plain == timed_variant(i, kind, false, true, spans),
                scenarios_[i].label + ": attaching a sink changed the trace");
        }
      }
    }
    // The packet kernel on its own: each parking lot built directly on
    // sim::MultiHopNetwork, reading the event kernel's count.
    for (const Scenario& s : scenarios_) {
      if (s.bottlenecks == 0) continue;
      sim::MultiHopNetwork::Config config;
      config.duration_seconds =
          kLinkRttMs / 1e3 * static_cast<double>(kSteps);
      sim::PacketParkingLot lot = sim::make_packet_parking_lot(
          kLinkMbps, kLinkRttMs / 2.0,
          static_cast<std::size_t>(std::lround(kLinkBdpMss)), s.bottlenecks,
          *s.protocol, config);
      {
        const Span span(spans, "sim", "sim.multihop_run");
        lot.network->run();
      }
      spans.count("sim.multihop.events",
                  static_cast<double>(
                      lot.network->simulator().events_processed()));
      spans.drain();
    }
  }

  void layer_metrics(const SpanSummary& s, const Spans& spans,
                     LayerValues& out) const override {
    const long ops = s.spans("engine.validate");
    if (ops > 0) {
      const double n = static_cast<double>(ops);
      out["engine.validate_s"] = s.seconds("engine.validate") / n;
      out["engine.expand_s"] = s.seconds("engine.expand") / n;
      out["engine.expanded_flows"] = spans.counted("engine.expanded_flows") / n;
      out["scope.windows"] = spans.counted("scope.windows") / n;
      out["recorder.events"] = spans.counted("recorder.events") / n;
      const double kept = spans.counted("recorder.events");
      const double dropped = spans.counted("recorder.dropped");
      out["recorder.dropped_frac"] =
          kept + dropped > 0 ? dropped / (kept + dropped) : 0.0;
    }
    const double cells = spans.counted("fluid.network.link_flow_steps");
    if (cells > 0) {
      out["fluid.network_ns_per_link_flow_step"] =
          s.seconds("fluid.network_backend_run") * 1e9 / cells;
    }
    // One op's worth of probe runs per variant is one scenario on both
    // backends.
    const double probe_ops =
        static_cast<double>(scenarios_.size() * kSinkProbeReps);
    const double plain = s.seconds("probe.no_sinks");
    out["scope.overhead_s"] = (s.seconds("probe.scope") - plain) / probe_ops;
    out["recorder.overhead_s"] =
        (s.seconds("probe.recorder") - plain) / probe_ops;
    const long lots = s.spans("sim.multihop_run");
    if (lots > 0) {
      const double events = spans.counted("sim.multihop.events");
      out["sim.multihop_run_s"] =
          s.seconds("sim.multihop_run") / static_cast<double>(lots);
      out["sim.events"] = events / static_cast<double>(lots);
      out["sim.events_per_s"] = events / s.seconds("sim.multihop_run");
    }
  }

  [[nodiscard]] std::uint64_t digest() const override {
    Digest d;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      d.add(labels_[i]);
      d.add(reference_[i].value_or(0));
    }
    return d.value();
  }

  [[nodiscard]] std::vector<std::string> notes() const override {
    std::vector<std::string> out;
    for (const Scenario& s : scenarios_) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "%s: %d links, %zu templates, %.3g Mbps, %.3g ms, "
                    "%.3g MSS buffer, %ld steps, scope window %ld",
                    s.label.c_str(), s.spec.topology.num_links(),
                    s.spec.senders.size(), kLinkMbps, kLinkRttMs, kLinkBdpMss,
                    s.spec.steps, kScopeWindowSteps);
      out.emplace_back(line);
    }
    return out;
  }

 private:
  /// Runs scenario `i` on one backend with the chosen sinks and checks the
  /// trace covers every step of the spec.
  RunOutput run_backend(std::size_t i, engine::BackendKind kind,
                        bool with_scope, bool with_recorder,
                        const Spans& spans, double* active) const {
    engine::ScenarioSpec spec = scenarios_[i].spec;
    spec.scope.enabled = with_scope;
    spec.record.enabled = with_recorder;
    const std::unique_ptr<scope::MetricScope> scope = engine::make_scope(spec);
    const std::unique_ptr<recorder::Recorder> rec = engine::make_recorder(spec);
    spec.scope_sink = scope.get();
    spec.record_sink = rec.get();
    const bool fluid = kind == engine::BackendKind::kFluid;
    engine::RunTrace rt = [&] {
      const Span span(spans, fluid ? "fluid" : "sim",
                      fluid ? "fluid.network_backend_run"
                            : "sim.packet_backend_run");
      return engine::backend_for(kind).run(spec);
    }();
    check(static_cast<long>(rt.trace.num_steps()) == spec.steps,
          scenarios_[i].label + " on " + engine::backend_name(kind) + ": " +
              std::to_string(rt.trace.num_steps()) + " steps, spec has " +
              std::to_string(spec.steps));
    RunOutput out;
    Digest d;
    d.add(std::string_view(engine::backend_name(kind)));
    out.digest = trace_digest(rt.trace, d);
    if (active != nullptr) {
      for (int s = 0; s < rt.trace.num_senders(); ++s) {
        for (const double w : rt.trace.windows(s)) *active += w > 0.0;
      }
    }
    if (scope) {
      Digest sd;
      for (const scope::Channel& c : scope->series().channels) {
        for (const scope::WindowSample& w : c.samples) sd.add(w.value);
        out.scope_windows += static_cast<double>(c.samples.size());
      }
      check(out.scope_windows > 0, scenarios_[i].label + ": no scope window");
      sd.add(out.digest);
      out.digest = sd.value();
    }
    if (rec) {
      const recorder::Recording recording = rec->snapshot();
      Digest rd;
      for (const recorder::Event& e : recording.events) {
        rd.add(static_cast<std::uint64_t>(e.step));
        rd.add(static_cast<std::uint64_t>(e.cls));
        rd.add(static_cast<std::uint64_t>(e.code));
        rd.add(static_cast<std::uint64_t>(e.subject));
        rd.add(e.a);
        rd.add(e.b);
      }
      check(!recording.events.empty(), scenarios_[i].label + ": no events");
      rd.add(out.digest);
      out.digest = rd.value();
      out.recorder_events = static_cast<double>(recording.events.size());
      out.recorder_dropped = static_cast<double>(recording.dropped);
    }
    return out;
  }

  /// One probe run of scenario `i` under span probe.{no_sinks,scope,
  /// recorder}; returns the digest of the bare simulated trace.
  std::uint64_t timed_variant(std::size_t i, engine::BackendKind kind,
                              bool with_scope, bool with_recorder,
                              Spans& spans) const {
    engine::ScenarioSpec spec = scenarios_[i].spec;
    spec.scope.enabled = with_scope;
    spec.record.enabled = with_recorder;
    const std::unique_ptr<scope::MetricScope> scope = engine::make_scope(spec);
    const std::unique_ptr<recorder::Recorder> rec = engine::make_recorder(spec);
    spec.scope_sink = scope.get();
    spec.record_sink = rec.get();
    const char* name = with_scope      ? "probe.scope"
                       : with_recorder ? "probe.recorder"
                                       : "probe.no_sinks";
    engine::RunTrace rt = [&] {
      const Span span(spans, "probe", name);
      return engine::backend_for(kind).run(spec);
    }();
    spans.drain();
    return trace_digest(rt.trace);
  }

  std::vector<std::string> labels_;
  std::vector<Scenario> scenarios_;
  std::vector<std::optional<std::uint64_t>> reference_;
  std::vector<double> sender_steps_;
};

}  // namespace

std::unique_ptr<Workload> make_routed_workload() {
  return std::make_unique<RoutedWorkload>();
}

}  // namespace perfbench
