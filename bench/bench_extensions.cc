// bench_extensions — the paper's future-work directions, implemented and
// measured (DESIGN.md "substrate extensions"):
//
//   1. candidate additional axioms (responsiveness, smoothness, Jain
//      fairness) across the protocol zoo;
//   2. network-wide interaction: the parking-lot topology on BOTH substrates
//      (fluid network and packet-level multi-hop);
//   3. a pacing-style model-based protocol (BBR-like) placed in the
//      8-metric space next to the loss-based families.
//
// Usage: bench_extensions [--steps=3000] [--duration=20]
//                         [--backend=fluid|packet] [--jobs=N] [--telemetry]
//                         [--out=dir]
//
// --jobs=N fans each extension's independent cells out over N workers
// (default: AXIOMCC_JOBS env, else hardware concurrency; 1 = serial).
// Per-extension timing lands in the run's ledger record (bench/harness.h).
// --backend selects the simulator for extensions 1 and 3 (default fluid);
// extension 2 runs both substrates by construction.
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "cc/bbr_like.h"
#include "cc/presets.h"
#include "cc/registry.h"
#include "cc/robust_aimd.h"
#include "core/evaluator.h"
#include "core/extra_metrics.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "sim/network.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/task_pool.h"

using namespace axiomcc;

namespace {

void extra_axioms(long steps, engine::BackendKind backend, long jobs) {
  std::printf("--- extension 1: candidate additional axioms ---\n");
  core::EvalConfig cfg;
  cfg.steps = steps;
  cfg.backend = backend;

  const std::vector<std::string> specs{
      "reno",         "aimd(4,0.5)",              "cubic-linux",
      "scalable",     "bin(1,1,1,0)",             "robust_aimd(1,0.8,0.01)",
      "bbr",          "vegas(2,4)"};

  struct Row {
    std::string name;
    long responsiveness = 0;
    double smoothness = 0.0;
    double jain = 0.0;
  };
  const auto rows = parallel_map(
      specs,
      [&](const std::string& spec) {
        const auto proto = cc::make_protocol(spec);
        Row row;
        row.name = proto->name();
        row.responsiveness = core::measure_responsiveness(*proto, cfg);
        const fluid::Trace t = core::run_shared_link(*proto, cfg);
        row.smoothness = core::measure_smoothness(t, cfg.estimator());
        row.jain = core::measure_jain_fairness(t, cfg.estimator());
        return row;
      },
      jobs);

  TextTable table;
  table.set_header({"protocol", "responsiveness (steps to refill)",
                    "smoothness", "jain fairness"});
  for (const auto& row : rows) {
    table.add_row({row.name, std::to_string(row.responsiveness),
                   TextTable::num(row.smoothness, 4),
                   TextTable::num(row.jain, 4)});
  }
  std::printf("%s\n", table.render().c_str());
}

void parking_lots(long steps, double duration, long jobs) {
  std::printf("--- extension 2: parking-lot topologies (network-wide "
              "interaction) ---\n");
  TextTable table;
  table.set_header({"substrate", "protocol", "bottlenecks",
                    "long/short share ratio"});

  const std::vector<int> fluid_ks{1, 2, 3, 6};
  const auto fluid_ratios = parallel_map(
      fluid_ks,
      [&](int k) {
        const cc::RobustAimd prototype(1.0, 0.5, 0.01);
        engine::ScenarioSpec spec;
        spec.steps = steps;
        engine::apply_parking_lot(
            spec, fluid::make_link_mbps(20.0, 40.0, 20.0), k, prototype);
        const fluid::Trace t =
            engine::backend_for(engine::BackendKind::kFluid).run(spec).trace;
        // Flow 0 is the long flow, flow 1 the first link's cross flow.
        return mean_of(tail_view(t.windows(0), 0.5)) /
               mean_of(tail_view(t.windows(1), 0.5));
      },
      jobs);
  for (std::size_t i = 0; i < fluid_ks.size(); ++i) {
    table.add_row({"fluid", "Robust-AIMD(1,0.5,0.01)",
                   std::to_string(fluid_ks[i]),
                   TextTable::num(fluid_ratios[i], 3)});
  }

  const std::vector<int> packet_ks{1, 2, 3};
  const auto packet_ratios = parallel_map(
      packet_ks,
      [&](int k) {
        sim::MultiHopNetwork::Config cfg;
        cfg.duration_seconds = duration;
        sim::PacketParkingLot lot = sim::make_packet_parking_lot(
            10.0, 10.0, 25, k, *cc::presets::reno(), cfg);
        lot.network->run();
        double short_sum = 0.0;
        for (int f : lot.short_flows) {
          short_sum += lot.network->flow_throughput_mbps(f);
        }
        return lot.network->flow_throughput_mbps(lot.long_flow) /
               (short_sum / static_cast<double>(lot.short_flows.size()));
      },
      jobs);
  for (std::size_t i = 0; i < packet_ks.size(); ++i) {
    table.add_row({"packet", "AIMD(1,0.5) [Reno]",
                   std::to_string(packet_ks[i]),
                   TextTable::num(packet_ratios[i], 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("(fluid AIMD would show ratio 1.0 under synchronized feedback; "
              "Robust-AIMD's\nloss-rate threshold and packet-level drop "
              "desynchronization expose the beat-down)\n\n");
}

void bbr_in_the_metric_space(long steps, engine::BackendKind backend,
                             long jobs) {
  std::printf("--- extension 3: a pacing-style protocol in the 8-metric "
              "space ---\n");
  core::EvalConfig cfg;
  cfg.steps = steps;
  cfg.backend = backend;

  const auto make_proto = [](std::size_t i) -> std::unique_ptr<cc::Protocol> {
    if (i == 0) return cc::presets::reno();
    if (i == 1) return std::make_unique<cc::BbrLike>();
    return cc::presets::robust_aimd_table2();
  };
  const auto rows = parallel_map(
      std::size_t{3},
      [&](std::size_t i) {
        const auto proto = make_proto(i);
        return std::pair<std::string, core::MetricReport>{
            proto->name(), core::evaluate_protocol(*proto, cfg)};
      },
      jobs);

  TextTable table;
  table.set_header({"protocol", "eff", "loss", "robust", "friendly",
                    "latency"});
  for (const auto& [name, m] : rows) {
    table.add_row({name, TextTable::num(m.efficiency, 3),
                   TextTable::num(m.loss_avoidance, 4),
                   TextTable::num(m.robustness, 4),
                   TextTable::num(m.tcp_friendliness, 3),
                   TextTable::num(m.latency_avoidance, 3)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("(BBR-like: high robustness and low latency without loss "
              "tolerance tuning —\na different Pareto-frontier point than "
              "Robust-AIMD)\n");
}

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  const long steps = args.get_int("steps");
  const engine::BackendKind backend = h.backend();
  const double duration = args.get_double("duration");
  const long jobs = h.jobs();

  std::printf("=== future-work extensions, measured (%ld jobs) ===\n\n",
              jobs);
  BenchReport& bench = h.report();
  WallTimer timer;
  extra_axioms(steps, backend, jobs);
  bench.add_phase("extra_axioms", timer.seconds());
  timer.reset();
  parking_lots(steps, duration, jobs);
  bench.add_phase("parking_lots", timer.seconds());
  timer.reset();
  bbr_in_the_metric_space(steps, backend, jobs);
  bench.add_phase("bbr_metric_space", timer.seconds());
  bench.add_counter("cells", 18.0);  // 8 + 4 + 3 + 3 extension cells
  bench.add_counter("cells_per_sec", 18.0 / bench.total_seconds());
  h.finish(engine::backend_name(backend));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "extensions",
                    // The responsiveness probe switches bandwidth at step
                    // steps / 2, which must be a step of the run.
                    {{"steps", Flag::kInt, "3000",
                      {2.0, Bound::kMax, "", " >= 2"}},
                     {"duration", Flag::kReal, "20", Bound::kPositive},
                     bench::backend_flag(), Flag::jobs()},
                    run_bench);
}
