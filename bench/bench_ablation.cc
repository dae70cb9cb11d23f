// bench_ablation — ablations of the design choices DESIGN.md calls out:
//
//   1. synchronized vs. staggered sender starts (the paper's synchronized-
//      feedback assumption, relaxed on the packet simulator);
//   2. droptail vs. RED at the bottleneck;
//   3. estimator tail-fraction sensitivity;
//   4. Robust-AIMD's eps sweep (robustness vs. friendliness trade).
//
// Usage: bench_ablation [--duration=20] [--steps=3000]
//                       [--backend=fluid|packet] [--jobs=N] [--telemetry]
//                       [--out=dir]
//
// --jobs=N fans each ablation's independent cells out over N workers
// (default: AXIOMCC_JOBS env, else hardware concurrency; 1 = serial).
// Per-ablation timing lands in the run's ledger record (bench/harness.h).
// --backend selects the simulator for ablations 3 and 4 (default fluid);
// ablations 1 and 2 are packet-level by construction.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "cc/presets.h"
#include "cc/robust_aimd.h"
#include "core/evaluator.h"
#include "engine/scenario.h"
#include "core/metrics.h"
#include "sim/dumbbell.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/task_pool.h"

using namespace axiomcc;

namespace {

/// The dumbbell's RTT, which is also its sampling interval.
constexpr double kRttMs = 42.0;

sim::DumbbellConfig base_dumbbell(double duration) {
  sim::DumbbellConfig cfg;
  cfg.bottleneck_mbps = 20.0;
  cfg.rtt_ms = kRttMs;
  cfg.buffer_packets = 100;
  cfg.duration_seconds = duration;
  return cfg;
}

/// Runs ablation 1 and returns the number of cells it scored.
std::size_t ablate_synchronization(double duration, long jobs) {
  std::printf("--- ablation 1: synchronized vs staggered starts (2x Reno, "
              "packet sim) ---\n");
  const core::EstimatorConfig est{0.5};
  // A second flow that starts at or after the scored tail's start would be
  // scored as a flow that never sent: such offsets are not run. The
  // offsets ascend, so the scored ones are a prefix.
  const double tail_start = duration * (1.0 - est.tail_fraction);
  const std::vector<double> staggers{0.0, 0.25, 1.0, 3.0};
  std::vector<double> scored;
  for (const double stagger : staggers) {
    if (stagger < tail_start) scored.push_back(stagger);
  }
  const auto rows = parallel_map(
      scored,
      [&](double stagger) {
        sim::DumbbellExperiment exp(base_dumbbell(duration));
        exp.add_flow(cc::presets::reno(), 0.0);
        exp.add_flow(cc::presets::reno(), stagger);
        exp.run();
        return std::array<double, 3>{
            core::measure_fairness(exp.trace(), est),
            core::measure_convergence(exp.trace(), est),
            core::measure_efficiency(exp.trace(), est)};
      },
      jobs);

  TextTable table;
  table.set_header({"start offsets", "fairness", "convergence", "efficiency"});
  for (std::size_t i = 0; i < staggers.size(); ++i) {
    const std::string offset = TextTable::num(staggers[i], 2) + "s";
    if (i >= rows.size()) {
      table.add_row({offset, "not scored", "-", "-"});
      continue;
    }
    table.add_row({offset, TextTable::num(rows[i][0], 3),
                   TextTable::num(rows[i][1], 3),
                   TextTable::num(rows[i][2], 3)});
  }
  std::printf("%s\n", table.render().c_str());
  if (rows.size() < staggers.size()) {
    std::printf("(not scored: the second flow starts at or after the scored "
                "tail, which begins at %.2fs)\n\n",
                tail_start);
  }
  return rows.size();
}

void ablate_queue_discipline(double duration, long jobs) {
  std::printf("--- ablation 2: droptail vs RED (1x Reno, deep buffer) ---\n");
  const auto reports = parallel_map(
      std::size_t{2},
      [&](std::size_t i) {
        sim::DumbbellConfig cfg = base_dumbbell(duration);
        cfg.use_red = i == 1;
        cfg.red.min_threshold = 15.0;
        cfg.red.max_threshold = 60.0;
        cfg.red.max_drop_probability = 0.1;
        sim::DumbbellExperiment exp(cfg);
        exp.add_flow(cc::presets::reno());
        exp.run();
        return exp.flow_reports()[0];
      },
      jobs);

  TextTable table;
  table.set_header({"queue", "avg rtt (ms)", "loss", "throughput (Mbps)"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    table.add_row({i == 1 ? "RED" : "droptail",
                   TextTable::num(reports[i].avg_rtt_ms, 1),
                   TextTable::num(reports[i].loss_rate, 4),
                   TextTable::num(reports[i].throughput_mbps, 2)});
  }
  std::printf("%s\n", table.render().c_str());
}

void ablate_tail_fraction(long steps, engine::BackendKind backend) {
  std::printf("--- ablation 3: estimator tail-fraction sensitivity "
              "(AIMD(1,0.5), %s) ---\n",
              engine::backend_name(backend));
  core::EvalConfig cfg;
  cfg.steps = steps;
  cfg.backend = backend;
  const auto reno = cc::presets::reno();
  const fluid::Trace trace = core::run_shared_link(*reno, cfg);

  TextTable table;
  table.set_header({"tail fraction", "efficiency", "convergence", "loss"});
  for (double tail : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const core::EstimatorConfig est{tail};
    table.add_row({TextTable::num(tail, 2),
                   TextTable::num(core::measure_efficiency(trace, est), 4),
                   TextTable::num(core::measure_convergence(trace, est), 4),
                   TextTable::num(core::measure_loss_avoidance(trace, est), 4)});
  }
  std::printf("%s(scores must stabilize once the transient is excluded)\n\n",
              table.render().c_str());
}

void ablate_robust_eps(long steps, engine::BackendKind backend, long jobs) {
  std::printf("--- ablation 4: Robust-AIMD eps sweep (robustness vs "
              "friendliness) ---\n");
  core::EvalConfig cfg;
  cfg.steps = steps;
  cfg.backend = backend;

  const std::vector<double> eps_grid{0.005, 0.007, 0.01, 0.02, 0.05};
  const auto rows = parallel_map(
      eps_grid,
      [&](double eps) {
        const cc::RobustAimd proto(1.0, 0.8, eps);
        const fluid::Trace t = core::run_shared_link(proto, cfg);
        return std::array<double, 3>{
            core::measure_robustness_score(proto, cfg),
            core::measure_tcp_friendliness_score(proto, cfg),
            core::measure_efficiency(t, cfg.estimator())};
      },
      jobs);

  TextTable table;
  table.set_header({"eps", "robustness", "tcp-friendliness", "efficiency"});
  for (std::size_t i = 0; i < eps_grid.size(); ++i) {
    table.add_row({TextTable::num(eps_grid[i], 3),
                   TextTable::num(rows[i][0], 4), TextTable::num(rows[i][1], 4),
                   TextTable::num(rows[i][2], 3)});
  }
  std::printf("%s(the paper's Pareto story: each eps buys robustness at a "
              "friendliness cost)\n",
              table.render().c_str());
}

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  const double duration = args.get_double("duration");
  const long steps = args.get_int("steps");
  const engine::BackendKind backend = h.backend();
  const long jobs = h.jobs();

  std::printf("=== ablation benches (DESIGN.md section 5; %ld jobs) ===\n\n",
              jobs);
  BenchReport& bench = h.report();
  WallTimer timer;
  const std::size_t sync_cells = ablate_synchronization(duration, jobs);
  bench.add_phase("synchronization", timer.seconds());
  timer.reset();
  ablate_queue_discipline(duration, jobs);
  bench.add_phase("queue_discipline", timer.seconds());
  timer.reset();
  ablate_tail_fraction(steps, backend);
  bench.add_phase("tail_fraction", timer.seconds());
  timer.reset();
  ablate_robust_eps(steps, backend, jobs);
  bench.add_phase("robust_eps", timer.seconds());
  // Up to 4 + 2 + 5 + 5 ablation cells: only those that ran count.
  const double cells = static_cast<double>(sync_cells + 2 + 5 + 5);
  bench.add_counter("cells", cells);
  bench.add_counter("cells_per_sec", cells / bench.total_seconds());
  h.finish(engine::backend_name(backend));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "ablation",
                    // The dumbbell samples once per RTT; a shorter run
                    // leaves the estimators no tail to score.
                    {{"duration", Flag::kReal, "20",
                      {kRttMs / 1000.0, Bound::kMax, "", " >= 0.042"}},
                     {"steps", Flag::kInt, "3000", Bound::kPositive},
                     bench::backend_flag(), Flag::jobs()},
                    run_bench);
}
