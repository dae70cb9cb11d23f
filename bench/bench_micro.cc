// bench_micro — ledgered performance benches of the library's own machinery
// (not a paper experiment): task-pool fan-out, telemetry-probe overhead and
// fluid population scaling. Per-layer simulator and estimator costs are
// perfbench's per-layer metrics (perfbench/README.md), not this binary's.
//
// Usage: bench_micro [--skip-pool] [--skip-overhead]
//                    [--senders-scaling[=maxN]]
//                    [--record[=dir[,classes=mask]]] [--telemetry]
//                    [--out=dir]
//
// A task-pool throughput bench measures parallel_map over fluid-simulation
// cells at jobs = 1, 2, 4, and hardware concurrency, and a
// telemetry-overhead bench times the same workload with probes
// runtime-disabled vs runtime-enabled. Both land in the `micro` ledger
// record, which states hardware_jobs() as its job count (there is no
// --jobs). --skip-pool / --skip-overhead skip the respective bench, and
// with both there is no `micro` record;
// --senders-scaling[=maxN] adds the materialized-vs-uniform
// population-scaling bench from n=1 (default maxN 100000; =1000000 adds the
// million-sender uniform-only point) as its own `senders_scaling` record.
// --telemetry and --out work as in the other benches (bench/harness.h).
// --record[=dir[,classes=mask]] flight-records one representative
// parking-lot run per backend into dir as micro-<backend>.jsonl (lane
// filtering via the classes mask, provenance-stamped with the git SHA,
// streaming metric windows included as kMetric events) before the benches
// run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "cc/aimd.h"
#include "core/metrics.h"
#include "engine/backend.h"
#include "engine/scenario.h"
#include "engine/topology.h"
#include "fluid/sim.h"
#include "ledger/provenance.h"
#include "recorder/io.h"
#include "telemetry/telemetry.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/task_pool.h"

using namespace axiomcc;

namespace {

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

/// Task-pool throughput at a fixed cell count, reported as cells/sec per
/// job count plus the speedup over the serial path. Lands in the `micro`
/// ledger record, so the record carries the machine's measured scaling
/// curve.
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
/// pay; they repeat until each point covers ~1M cells. Runs when
/// --senders-scaling[=maxN] is given and lands in its own `senders_scaling`
/// ledger record. n above 100k (the
/// million-sender point, =1000000) runs the uniform layout only.
void run_senders_scaling_bench(BenchReport& bench, long max_n) {
  constexpr long kSteps = 1000;
  constexpr double kMinCells = 1e6;
  const auto seconds_per_run = [&](long n, bool materialized) {
    // Per-sender bandwidth held constant so dynamics are n-independent.
    const auto link = fluid::make_link_mbps(
        std::max(30.0, 0.03 * static_cast<double>(n)), 42.0, 100.0);
    fluid::SimOptions opt;
    opt.steps = kSteps;
    opt.trace_detail = fluid::TraceDetail::kAggregate;
    opt.tracked_senders = 8;
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
      if (sim.run().num_steps() != static_cast<std::size_t>(kSteps)) {
        throw std::runtime_error("senders scaling: a run ended early");
      }
    }
    return timer.seconds() / static_cast<double>(reps);
  };

  std::printf("--- senders scaling: %ld-step AIMD runs ---\n", kSteps);
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
    double score = 0.0;
    for (std::size_t i = 0; i < kCells; ++i) score += sweep_cell(i);
    const double seconds = timer.seconds();
    if (!std::isfinite(score)) {
      throw std::runtime_error("telemetry overhead: a cell scored non-finite");
    }
    return seconds;
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
    (void)engine::backend_for(backend).run(scenario);
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

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  const bool pool = !args.has("skip-pool");
  const bool overhead = !args.has("skip-overhead");
  // The `micro` record exists only when one of its benches runs.
  BenchReport* bench = pool || overhead ? &h.report() : nullptr;
  if (h.record()) run_recorded_probe(*h.record());
  if (pool) run_pool_throughput_bench(*bench);
  if (args.has("senders-scaling")) {
    // Its own ledger group: the scaling runs' workload (and therefore any
    // deterministic telemetry it would carry) varies with maxN, so mixing it
    // into the `micro` group would trip the sentinel's exact-counter gate.
    run_senders_scaling_bench(h.report("senders_scaling"),
                              args.get_int("senders-scaling"));
  }
  if (overhead) run_telemetry_overhead_bench(*bench);
  h.finish("fluid");  // every timed bench here runs the fluid engine
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "micro",
                    {bench::record_flag(), {"skip-pool"}, {"skip-overhead"},
                     // --senders-scaling alone runs up to 100000 senders.
                     {"senders-scaling", Flag::kInt, "100000",
                      Bound::kPositive}},
                    run_bench);
}
