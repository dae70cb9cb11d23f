// bench_micro — google-benchmark microbenchmarks of the two simulation
// substrates: fluid steps/s and packet-level events/s, plus the metric
// estimators. These are performance benches for the library itself (not a
// paper experiment).
//
// Usage: bench_micro [--skip-pool] [--skip-overhead]
//                    [--senders-scaling[=maxN]] [--backend=fluid|packet]
//                    [--record[=dir[,classes=mask]]] [--telemetry]
//                    [--out=dir] [--benchmark_*...]
//
// Before the google-benchmark suite runs, a task-pool throughput bench
// measures parallel_map over fluid-simulation cells at jobs = 1, 2, 4, and
// hardware concurrency, and a telemetry-overhead bench times the same
// workload with probes runtime-disabled vs runtime-enabled. Both land in
// the `micro` ledger record, which states hardware_jobs() as its job count
// (there is no --jobs). --benchmark_* flags pass through to
// google-benchmark; --skip-pool / --skip-overhead skip the respective
// pre-suite bench, --senders-scaling[=maxN] adds the
// materialized-vs-uniform population-scaling bench from n=1 (default maxN
// 100000; =1000000 adds the million-sender uniform-only point) as its own
// `senders_scaling` record. --telemetry and --out work as in the other
// benches (bench/harness.h); --backend drives the EvalConfig-based benches.
// --record[=dir[,classes=mask]] flight-records one representative
// parking-lot run per backend into dir as micro-<backend>.jsonl (lane
// filtering via the classes mask, provenance-stamped with the git SHA,
// streaming metric windows included as kMetric events) before the suite
// runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "bench/harness.h"
#include "ledger/provenance.h"
#include "cc/aimd.h"
#include "cc/presets.h"
#include "core/evaluator.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "engine/scenario.h"
#include "engine/topology.h"
#include "fluid/sim.h"
#include "recorder/io.h"
#include "sim/dumbbell.h"
#include "fluid/network.h"
#include "sim/event.h"
#include "sim/network.h"
#include "sim/queue.h"
#include "telemetry/telemetry.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/task_pool.h"

using namespace axiomcc;

namespace {

/// Backend for the EvalConfig-driven benches; set from --backend in main
/// before google-benchmark takes over (its BENCHMARK functions cannot see
/// argv).
engine::BackendKind g_backend = engine::BackendKind::kFluid;

void BM_FluidSimulationSteps(benchmark::State& state) {
  const long steps = state.range(0);
  const auto link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  for (auto _ : state) {
    fluid::SimOptions opt;
    opt.steps = steps;
    fluid::FluidSimulation sim(link, opt);
    sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
    sim.add_sender(cc::Aimd(1.0, 0.5), 50.0);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_FluidSimulationSteps)->Arg(1000)->Arg(10000);

void BM_EventKernelChurn(benchmark::State& state) {
  // Schedule/execute a self-rescheduling callback chain: the kernel's
  // control-event path (slot slab + std::function).
  const int chain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = chain;
    std::function<void()> hop = [&] {
      if (--remaining > 0) sim.schedule_in(SimTime(1000), hop);
    };
    sim.schedule_in(SimTime(1000), hop);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_EventKernelChurn)->Arg(10000);

/// Re-schedules the packet it receives until the chain is spent.
class PacketChain final : public sim::PacketHandler {
 public:
  PacketChain(sim::Simulator& sim, int hops) : sim_(sim), remaining_(hops) {}
  void on_packet_event(int port, const sim::Packet& packet) override {
    if (--remaining_ > 0) {
      sim_.schedule_packet_in(SimTime(1000), *this, port, packet);
    }
  }

 private:
  sim::Simulator& sim_;
  int remaining_;
};

void BM_PacketEventKernel(benchmark::State& state) {
  // The same chain through typed packet events: the per-packet path link
  // tx-done, link delivery and ACK return take.
  const int chain = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    PacketChain hop(sim, chain);
    sim.schedule_packet_in(SimTime(1000), hop, 0, sim::Packet{});
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * chain);
}
BENCHMARK(BM_PacketEventKernel)->Arg(10000);

/// Keeps a fixed number of packets in flight: every event re-sends its
/// packet with the same delay, on a delay line or as a plain heap entry.
class InFlight final : public sim::PacketHandler {
 public:
  InFlight(sim::Simulator& sim, bool on_line, int events)
      : sim_(sim),
        line_(sim.add_line(*this, 0)),
        on_line_(on_line),
        remaining_(events) {}
  void send(SimTime delay, const sim::Packet& packet) {
    if (on_line_) {
      sim_.schedule_on_line(line_, delay, packet);
    } else {
      sim_.schedule_packet_in(delay, *this, 0, packet);
    }
  }
  void on_packet_event(int /*port*/, const sim::Packet& packet) override {
    if (--remaining_ > 0) send(SimTime(kDelay), packet);
  }
  static constexpr std::int64_t kDelay = 1 << 20;

 private:
  sim::Simulator& sim_;
  sim::Simulator::LineId line_;
  bool on_line_;
  int remaining_;
};

void BM_PacketEventKernelInFlight(benchmark::State& state) {
  // Per-event cost with k packets in flight on one link: flat in k on a
  // delay line (only its head is in the heap), log k as plain heap entries.
  const int in_flight = static_cast<int>(state.range(0));
  const bool on_line = state.range(1) != 0;
  constexpr int kEvents = 100000;
  for (auto _ : state) {
    sim::Simulator sim;
    InFlight link(sim, on_line, kEvents);
    for (int i = 0; i < in_flight; ++i) link.send(SimTime(i), sim::Packet{});
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_PacketEventKernelInFlight)
    ->ArgNames({"in_flight", "line"})
    ->ArgsProduct({{1, 256, 1024}, {1, 0}});

void BM_PacketSimulation(benchmark::State& state) {
  const double seconds = static_cast<double>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    sim::DumbbellConfig cfg;
    cfg.bottleneck_mbps = 20.0;
    cfg.rtt_ms = 42.0;
    cfg.buffer_packets = 100;
    cfg.duration_seconds = seconds;
    sim::DumbbellExperiment exp(cfg);
    exp.add_flow(cc::presets::reno());
    exp.add_flow(cc::presets::cubic_linux());
    exp.run();
    events += exp.simulator().events_processed();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PacketSimulation)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_MetricEstimators(benchmark::State& state) {
  core::EvalConfig cfg;
  cfg.steps = 4000;
  cfg.backend = g_backend;
  const auto reno = cc::presets::reno();
  const fluid::Trace trace = core::run_shared_link(*reno, cfg);
  for (auto _ : state) {
    const core::EstimatorConfig est{0.5};
    benchmark::DoNotOptimize(core::measure_efficiency(trace, est));
    benchmark::DoNotOptimize(core::measure_fairness(trace, est));
    benchmark::DoNotOptimize(core::measure_convergence(trace, est));
    benchmark::DoNotOptimize(core::measure_loss_avoidance(trace, est));
    benchmark::DoNotOptimize(core::measure_latency_avoidance(trace, est));
  }
}
BENCHMARK(BM_MetricEstimators);

void BM_MultiHopPacketSimulation(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  std::size_t events = 0;
  for (auto _ : state) {
    sim::MultiHopNetwork::Config cfg;
    cfg.duration_seconds = 5.0;
    sim::PacketParkingLot lot = sim::make_packet_parking_lot(
        10.0, 10.0, 25, hops, *cc::presets::reno(), cfg);
    lot.network->run();
    events += lot.network->simulator().events_processed();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MultiHopPacketSimulation)->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_RedQueueDiscipline(benchmark::State& state) {
  // Enqueue/dequeue churn through RED's EWMA + drop logic.
  sim::REDQueue::Params params;
  params.capacity_packets = 128;
  params.min_threshold = 30.0;
  params.max_threshold = 90.0;
  sim::REDQueue queue(params);
  sim::Packet packet;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    packet.seq = seq++;
    if (queue.enqueue(packet)) {
      if (queue.size_packets() > 64) benchmark::DoNotOptimize(queue.dequeue());
    } else {
      benchmark::DoNotOptimize(queue.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedQueueDiscipline);

void BM_FluidNetworkParkingLot(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    fluid::NetworkOptions opt;
    opt.steps = 2000;
    fluid::ParkingLot lot = fluid::make_parking_lot(
        fluid::make_link_mbps(20.0, 40.0, 20.0), hops, cc::Aimd(1.0, 0.5),
        opt);
    benchmark::DoNotOptimize(lot.network.run());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_FluidNetworkParkingLot)->Arg(3);

void BM_FullProtocolEvaluation(benchmark::State& state) {
  core::EvalConfig cfg;
  cfg.steps = 2000;
  cfg.fast_utilization_steps = 1000;
  cfg.robustness_steps = 1000;
  cfg.backend = g_backend;
  const cc::Aimd reno(1.0, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate_protocol(reno, cfg));
  }
  state.SetLabel("all 8 metrics incl. robustness binary search");
}
BENCHMARK(BM_FullProtocolEvaluation)->Unit(benchmark::kMillisecond);

/// One representative sweep cell: a shared-link fluid run plus the tail
/// estimators — the workload parallel_map fans out in the experiment layer.
double sweep_cell(std::size_t index) {
  const auto link =
      fluid::make_link_mbps(20.0 + static_cast<double>(index % 8) * 10.0,
                            42.0, 100.0);
  fluid::SimOptions opt;
  opt.steps = 1200;
  fluid::FluidSimulation sim(link, opt);
  sim.add_sender(cc::Aimd(1.0, 0.5), 1.0);
  sim.add_sender(cc::Aimd(1.0, 0.5), 50.0);
  const fluid::Trace trace = sim.run();
  const core::EstimatorConfig est{0.5};
  return core::measure_efficiency(trace, est) +
         core::measure_fairness(trace, est);
}

void BM_ParallelMapSweepCells(benchmark::State& state) {
  const long jobs = state.range(0);
  constexpr std::size_t kCells = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel_map(kCells, sweep_cell, jobs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCells));
}
BENCHMARK(BM_ParallelMapSweepCells)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Task-pool throughput at a fixed cell count, reported as cells/sec per
/// job count plus the speedup over the serial path. Runs once before the
/// google-benchmark suite and lands in the `micro` ledger record, so the
/// record carries the machine's measured scaling curve.
void run_pool_throughput_bench(BenchReport& bench) {
  constexpr std::size_t kCells = 48;
  const long hw = hardware_jobs();
  std::vector<long> job_counts{1, 2, 4};
  if (hw > 4) job_counts.push_back(hw);

  std::printf("--- task-pool throughput: %zu fluid sweep cells ---\n", kCells);

  double serial_seconds = 0.0;
  for (const long jobs : job_counts) {
    WallTimer timer;
    const auto results = parallel_map(kCells, sweep_cell, jobs);
    const double seconds = timer.seconds();
    if (jobs == 1) serial_seconds = seconds;

    const double cells_per_sec = static_cast<double>(results.size()) / seconds;
    const double speedup = serial_seconds / seconds;
    std::printf("jobs=%-3ld  %8.1f cells/s  speedup %.2fx\n", jobs,
                cells_per_sec, speedup);
    const std::string suffix = "_jobs" + std::to_string(jobs);
    bench.add_phase("parallel_map" + suffix, seconds);
    bench.add_counter("cells_per_sec" + suffix, cells_per_sec);
    bench.add_counter("speedup" + suffix, speedup);
  }
  bench.add_counter("cells", static_cast<double>(kCells));
  std::printf("\n");
}

/// Population-scaling bench for the fluid engine's cohort tick loop: the
/// uniform layout (one representative per cohort, what an aggregate-trace
/// run without a step monitor takes) against the materialized layout (every
/// member stored, forced here by a pass-through step monitor), as ns/cell
/// and cells/sec (cells = senders·steps) at growing n, both on aggregate
/// traces so trace retention never dominates. The small-population points
/// (n = 1, 2, 8) guard the per-cell cost the evaluator's 1–2-sender runs
/// pay; they repeat until each point covers ~1M cells. Runs once before the
/// google-benchmark suite when --senders-scaling[=maxN] is given and lands
/// in its own `senders_scaling` ledger record. n above 100k (the
/// million-sender point, =1000000) runs the uniform layout only.
void run_senders_scaling_bench(BenchReport& bench, long max_n) {
  constexpr long kSteps = 1000;
  constexpr double kMinCells = 1e6;
  const long jobs = hardware_jobs();
  const auto seconds_per_run = [&](long n, bool materialized) {
    // Per-sender bandwidth held constant so dynamics are n-independent.
    const auto link = fluid::make_link_mbps(
        std::max(30.0, 0.03 * static_cast<double>(n)), 42.0, 100.0);
    fluid::SimOptions opt;
    opt.steps = kSteps;
    opt.trace_detail = fluid::TraceDetail::kAggregate;
    opt.tracked_senders = 8;
    opt.jobs = jobs;
    const long reps = std::max(
        1L, static_cast<long>(kMinCells / static_cast<double>(n * kSteps)));
    WallTimer timer;
    for (long r = 0; r < reps; ++r) {
      fluid::FluidSimulation sim(link, opt);
      sim.add_senders(cc::Aimd(1.0, 0.5), n, 2.0);
      if (materialized) {
        sim.set_step_monitor(
            [](long, std::span<const double>, double, double) { return true; });
      }
      benchmark::DoNotOptimize(sim.run());
    }
    return timer.seconds() / static_cast<double>(reps);
  };

  std::printf("--- senders scaling: %ld-step AIMD runs, jobs=%ld ---\n",
              kSteps, jobs);
  (void)seconds_per_run(1, /*materialized=*/false);  // warm-up, untimed
  for (const long n : {1L, 2L, 8L, 1000L, 10000L, 100000L, 1000000L}) {
    if (n > max_n) break;
    const double cells = static_cast<double>(n) * static_cast<double>(kSteps);
    const std::string suffix = "_n" + std::to_string(n);
    const double uniform_sec = seconds_per_run(n, /*materialized=*/false);
    bench.add_phase("uniform" + suffix, uniform_sec);
    bench.add_counter("uniform_ns_per_cell" + suffix,
                      uniform_sec / cells * 1e9);
    bench.add_counter("uniform_cells_per_sec" + suffix, cells / uniform_sec);
    bench.add_counter("uniform_senders_per_sec" + suffix,
                      static_cast<double>(n) / uniform_sec);
    if (n > 100000) {
      std::printf("n=%-8ld uniform %7.1f ns/cell  %8.2fM cells/s  "
                  "(materialized skipped)\n",
                  n, uniform_sec / cells * 1e9, cells / uniform_sec / 1e6);
      continue;
    }
    const double materialized_sec = seconds_per_run(n, /*materialized=*/true);
    bench.add_phase("materialized" + suffix, materialized_sec);
    bench.add_counter("materialized_ns_per_cell" + suffix,
                      materialized_sec / cells * 1e9);
    bench.add_counter("materialized_cells_per_sec" + suffix,
                      cells / materialized_sec);
    bench.add_counter("uniform_speedup" + suffix,
                      materialized_sec / uniform_sec);
    std::printf(
        "n=%-8ld materialized %7.1f ns/cell  uniform %7.1f ns/cell  "
        "%8.2fM cells/s  speedup %.2fx\n",
        n, materialized_sec / cells * 1e9, uniform_sec / cells * 1e9,
        cells / uniform_sec / 1e6, materialized_sec / uniform_sec);
  }
  bench.add_counter("senders_scaling_steps", static_cast<double>(kSteps));
  std::printf("\n");
}

/// Times the sweep-cell workload with telemetry probes runtime-disabled vs
/// runtime-enabled (best-of-N to shave scheduler noise). The delta is the
/// runtime cost of the probes in the fluid tick loop.
void run_telemetry_overhead_bench(BenchReport& bench) {
  constexpr int kReps = 5;
  constexpr std::size_t kCells = 64;
  const auto time_workload = [] {
    WallTimer timer;
    for (std::size_t i = 0; i < kCells; ++i) {
      benchmark::DoNotOptimize(sweep_cell(i));
    }
    return timer.seconds();
  };
  const bool was_enabled = telemetry::enabled();
  // Warm-up pass, then interleave the two configurations so CPU frequency
  // ramp and cache warm-up hit both sides equally.
  telemetry::set_enabled(false);
  (void)time_workload();
  double off_seconds = std::numeric_limits<double>::infinity();
  double on_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    telemetry::set_enabled(false);
    off_seconds = std::min(off_seconds, time_workload());
    telemetry::set_enabled(true);
    on_seconds = std::min(on_seconds, time_workload());
  }
  telemetry::set_enabled(was_enabled);

  const double overhead_pct = (on_seconds / off_seconds - 1.0) * 100.0;
  std::printf("--- telemetry overhead: %zu sweep cells, best of %d ---\n",
              kCells, kReps);
  std::printf("disabled %.4fs, enabled %.4fs, overhead %+.2f%%\n\n",
              off_seconds, on_seconds, overhead_pct);

  bench.add_counter("telemetry_disabled_sec", off_seconds);
  bench.add_counter("telemetry_enabled_sec", on_seconds);
  bench.add_counter("telemetry_overhead_pct", overhead_pct);
}

/// --record[=dir[,classes=mask]]: flight-records one representative
/// 3-bottleneck parking-lot run per backend, with the streaming metric
/// scope attached so kMetric windows land in the capture. Recordings are
/// provenance-stamped so axiomcc-inspect --align can compare captures from
/// two checkouts.
void run_recorded_probe(const bench::RecordRequest& request) {
  recorder::RecordOptions ropts;
  ropts.enabled = true;
  ropts.classes = request.classes;
  for (const engine::BackendKind backend :
       {engine::BackendKind::kFluid, engine::BackendKind::kPacket}) {
    const cc::Aimd aimd(1.0, 0.5);
    engine::ScenarioSpec scenario;
    scenario.steps = 400;
    engine::apply_parking_lot(scenario,
                              fluid::make_link_mbps(30.0, 42.0, 100.0), 3,
                              aimd);
    scenario.record = ropts;
    const auto rec = engine::make_recorder(scenario);
    scenario.record_sink = rec.get();
    scenario.scope.enabled = true;
    const auto sc = engine::make_scope(scenario);
    scenario.scope_sink = sc.get();
    benchmark::DoNotOptimize(engine::backend_for(backend).run(scenario));
    recorder::Recording snap = rec->snapshot();
    snap.git_sha = ledger::current_provenance().git_sha;
    const std::string path = request.dir + "/micro-" +
                             engine::backend_name(backend) + ".jsonl";
    recorder::write_text_file(path, recorder::recording_to_jsonl(snap));
    std::printf("Recording: %s (%zu events)\n", path.c_str(),
                snap.events.size());
  }
  std::printf("\n");
}

int run_bench(bench::Harness& h, int argc, char** argv) {
  const ArgParser& args = h.args();
  g_backend = h.backend();
  const auto& record = h.record();

  BenchReport& bench = h.report();
  if (record) run_recorded_probe(*record);
  if (!args.has("skip-pool")) run_pool_throughput_bench(bench);
  if (args.has("senders-scaling")) {
    // Its own ledger group: the scaling runs' workload (and therefore any
    // deterministic telemetry it would carry) varies with maxN, so mixing it
    // into the `micro` group would trip the sentinel's exact-counter gate.
    run_senders_scaling_bench(h.report("senders_scaling"),
                              args.get_int("senders-scaling"));
  }
  if (!args.has("skip-overhead")) run_telemetry_overhead_bench(bench);
  h.finish(engine::backend_name(g_backend));

  // The harness has checked every other flag, so what google-benchmark
  // gets is argv[0] and the --benchmark_* flags.
  std::vector<char*> benchmark_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_")) {
      benchmark_argv.push_back(argv[i]);
    }
  }
  int benchmark_argc = static_cast<int>(benchmark_argv.size());
  benchmark::Initialize(&benchmark_argc, benchmark_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "micro",
                    {bench::backend_flag(), bench::record_flag(),
                     {"skip-pool"}, {"skip-overhead"},
                     // --senders-scaling alone runs up to 100000 senders.
                     {"senders-scaling", Flag::kInt, "100000",
                      Bound::kPositive},
                     {"benchmark_*", Flag::kText}},
                    [&](bench::Harness& h) {
                      return run_bench(h, argc, argv);
                    });
}
