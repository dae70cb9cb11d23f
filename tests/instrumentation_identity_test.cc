// Pins that instrumentation never changes a result. Every scenario runs
// four ways — bare, with a flight recorder and a metric scope attached,
// with telemetry enabled, and with both — and the four RunTraces must agree
// bit for bit: every stored series, the packet backend's per-flow reports
// and its bottleneck utilization. Each hook must also have fired, so the
// identity is not the vacuous one of a hook that never ran.
//
// Paths: the fluid cohort loop (churn, Bernoulli loss, a bandwidth
// schedule), the fluid routed loop on a parking lot, and the packet backend
// on both scenarios.
#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "telemetry/telemetry.h"

namespace axiomcc::engine {
namespace {

/// Every value a run returns, as hex floats, so equal text is equal bits.
std::string trace_text(const RunTrace& run) {
  std::ostringstream out;
  out << std::hexfloat;
  const auto series = [&out](auto values) {
    for (const auto v : values) out << v << ' ';
    out << '\n';
  };
  const fluid::Trace& trace = run.trace;
  series(trace.total_window());
  series(trace.rtt_seconds());
  series(trace.congestion_loss());
  for (const int id : trace.tracked_senders()) {
    series(trace.windows(id));
    series(trace.observed_loss(id));
  }
  if (trace.detail() == fluid::TraceDetail::kAggregate) {
    series(trace.window_min());
    series(trace.window_max());
    series(trace.window_mean());
    series(trace.active_senders());
  }
  for (const sim::FlowReport& f : run.flows) {
    out << f.protocol_name << ' ' << f.avg_window_mss << ' '
        << f.throughput_mbps << ' ' << f.loss_rate << ' ' << f.avg_rtt_ms
        << '\n';
  }
  out << run.bottleneck_utilization;
  return out.str();
}

/// Runs `spec` on `kind` with telemetry off and on, each without and with
/// a recorder + scope; every trace must equal the bare run's.
void expect_instrumentation_inert(BackendKind kind, ScenarioSpec spec) {
  const SimBackend& backend = backend_for(kind);
  const std::string engine_counters = std::string("engine.") + backend.name();
  std::string bare;
  for (const bool telemetry_on : {false, true}) {
    for (const bool sinks : {false, true}) {
      SCOPED_TRACE(std::string(backend.name()) + ", telemetry " +
                   (telemetry_on ? "on" : "off") +
                   (sinks ? ", recorder + scope" : ""));
      telemetry::Registry::global().reset_values();
      telemetry::set_enabled(telemetry_on);
      spec.record.enabled = sinks;
      spec.scope.enabled = sinks;
      spec.scope.window_steps = 32;
      const auto rec = make_recorder(spec);
      const auto scope = make_scope(spec);
      spec.record_sink = rec.get();
      spec.scope_sink = scope.get();
      const std::string text = trace_text(backend.run(spec));
      telemetry::set_enabled(false);

      if (bare.empty()) bare = text;
      EXPECT_TRUE(text == bare) << "instrumentation changed the trace";
      if (sinks) {
        const auto events = rec->snapshot().events;
        EXPECT_TRUE(std::any_of(
            events.begin(), events.end(), [](const recorder::Event& e) {
              return e.cls == recorder::EventClass::kMetric;
            })) << "no scope window reached the recorder";
      }
      long runs = 0;
      for (const telemetry::CounterSnapshot& counter :
           telemetry::Registry::global().snapshot().counters) {
        if (counter.name.starts_with(engine_counters)) runs += counter.value;
      }
      EXPECT_EQ(runs > 0, telemetry_on);
    }
  }
}

/// One link: an AIMD cohort of four, a CUBIC that joins at step 20 and
/// leaves at 90, a Reno that joins at 45, Bernoulli injected loss and a
/// bandwidth drop and recovery.
ScenarioSpec single_link_spec(const cc::Protocol& aimd,
                              const cc::Protocol& cubic,
                              const cc::Protocol& reno) {
  ScenarioSpec spec;
  spec.link = fluid::make_link_mbps(12.0, 30.0, 40.0);
  spec.steps = 140;
  spec.seed = 11;
  spec.add_senders(aimd, 4, 1.0);
  spec.add_sender(cubic, 1.0, 20.0, 90.0);
  spec.add_sender(reno, 1.0, 45.0);
  spec.loss = {.kind = fluid::LossSpec::Kind::kBernoulli,
               .rate = 0.05,
               .prob = 0.2};
  spec.bandwidth_scale = fluid::Schedule{{{50, 0.5}, {100, 1.5}}};
  return spec;
}

/// Three bottlenecks: the long AIMD flow over all of them plus one cross
/// flow per link, with Bernoulli loss on top.
ScenarioSpec parking_lot_spec(const cc::Protocol& aimd) {
  ScenarioSpec spec;
  spec.steps = 140;
  spec.seed = 5;
  apply_parking_lot(spec, fluid::make_link_mbps(12.0, 30.0, 40.0), 3, aimd);
  spec.loss = {.kind = fluid::LossSpec::Kind::kBernoulli,
               .rate = 0.05,
               .prob = 0.1};
  return spec;
}

class InstrumentationIdentity : public testing::Test {
 protected:
  const std::unique_ptr<cc::Protocol> aimd_ = cc::make_protocol("aimd(1,0.5)");
  const std::unique_ptr<cc::Protocol> cubic_ =
      cc::make_protocol("cubic(0.4,0.8)");
  const std::unique_ptr<cc::Protocol> reno_ = cc::make_protocol("reno");
};

TEST_F(InstrumentationIdentity, FluidCohortLoop) {
  ScenarioSpec spec = single_link_spec(*aimd_, *cubic_, *reno_);
  expect_instrumentation_inert(BackendKind::kFluid, spec);
  spec.trace_detail = fluid::TraceDetail::kAggregate;
  spec.tracked_senders = 2;
  expect_instrumentation_inert(BackendKind::kFluid, spec);
}

TEST_F(InstrumentationIdentity, FluidNetworkParkingLot) {
  expect_instrumentation_inert(BackendKind::kFluid, parking_lot_spec(*aimd_));
}

TEST_F(InstrumentationIdentity, PacketBackend) {
  expect_instrumentation_inert(BackendKind::kPacket,
                               single_link_spec(*aimd_, *cubic_, *reno_));
  expect_instrumentation_inert(BackendKind::kPacket,
                               parking_lot_spec(*aimd_));
}

}  // namespace
}  // namespace axiomcc::engine
