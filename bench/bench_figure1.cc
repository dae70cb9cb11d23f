// bench_figure1 — regenerates Figure 1: the Pareto frontier of
// (fast-utilization α, efficiency β, TCP-friendliness 3(1−β)/(α(1+β))).
//
// Prints the analytic surface as series (one per α, swept over β), verifies
// that no grid point Pareto-dominates another, and measures AIMD(α, β) at
// sample points to confirm each surface point is attained by a real protocol.
//
// Usage: bench_figure1 [--skip-attainment] [--steps=4000]
//                      [--backend=fluid|packet] [--jobs=N] [--markdown]
//                      [--telemetry] [--out=dir]
//
// --jobs=N fans the attainment sample points out over N workers (default:
// AXIOMCC_JOBS env, else hardware concurrency; 1 = serial). Timing lands in
// the run's ledger record (bench/harness.h).
// --backend selects the simulator for the attainment measurements (default
// fluid; the analytic surface itself is exact).
#include <cstdio>
#include <map>

#include "bench/harness.h"
#include "engine/scenario.h"
#include "exp/figure1.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  const long jobs = h.jobs();
  const engine::BackendKind backend = h.backend();

  std::printf("=== Figure 1: Pareto frontier of efficiency, friendliness, "
              "fast-utilization ===\n\n");

  BenchReport& bench = h.report();
  WallTimer timer;

  const auto grid = exp::figure1_grid();
  bench.add_phase("surface", timer.seconds());

  // Group into series by alpha for a plot-like rendering.
  std::map<double, std::vector<core::Figure1Point>> series;
  for (const auto& p : grid) series[p.fast_utilization_alpha].push_back(p);

  TextTable table;
  table.set_header({"fast-util alpha", "efficiency beta",
                    "TCP-friendliness (frontier)"});
  for (const auto& [alpha, points] : series) {
    for (const auto& p : points) {
      table.add_row({TextTable::num(alpha, 2),
                     TextTable::num(p.efficiency_beta, 2),
                     TextTable::num(p.tcp_friendliness, 4)});
    }
  }
  std::printf("%s\n", table.render(args.has("markdown")
                                       ? TextTable::Format::kMarkdown
                                       : TextTable::Format::kAscii)
                          .c_str());

  timer.reset();
  const auto frontier = exp::frontier_of(grid);
  bench.add_phase("pareto_check", timer.seconds());
  std::printf("Pareto check: %zu of %zu grid points are non-dominated "
              "(expected: all — the surface IS the frontier)\n\n",
              frontier.size(), grid.size());

  std::size_t attainment_cells = 0;
  if (!args.has("skip-attainment")) {
    std::printf("Attainment check: AIMD(alpha,beta) measured on the fluid "
                "model at sample points (%ld jobs)\n",
                jobs);
    core::EvalConfig cfg;
    cfg.steps = args.get_int("steps");
    cfg.backend = backend;
    timer.reset();
    const auto checks = exp::verify_attainment(cfg, jobs);
    bench.add_phase("verify_attainment", timer.seconds());
    attainment_cells = checks.size();

    TextTable verify;
    verify.set_header({"AIMD(a,b)", "alpha (meas/analytic)",
                       "beta (meas/analytic-worst)",
                       "friendliness (meas/analytic)"});
    for (const auto& v : checks) {
      const std::string name =
          "AIMD(" + TextTable::num(v.analytic.fast_utilization_alpha, 1) +
          "," + TextTable::num(v.analytic.efficiency_beta, 1) + ")";
      verify.add_row(
          {name,
           TextTable::num(v.measured_fast_utilization, 3) + " / " +
               TextTable::num(v.analytic.fast_utilization_alpha, 3),
           TextTable::num(v.measured_efficiency, 3) + " / " +
               TextTable::num(v.analytic.efficiency_beta, 3),
           TextTable::num(v.measured_friendliness, 3) + " / " +
               TextTable::num(v.analytic.tcp_friendliness, 3)});
    }
    std::printf("%s\n", verify.render().c_str());
    std::printf("(measured efficiency exceeds the analytic worst-case beta "
                "on any single link; the bound is over ALL links)\n");
  }

  bench.add_counter("cells",
                    static_cast<double>(grid.size() + attainment_cells));
  bench.add_counter("cells_per_sec",
                    static_cast<double>(grid.size() + attainment_cells) /
                        bench.total_seconds());
  h.finish(engine::backend_name(backend));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "figure1",
                    {{"skip-attainment"},
                     {"steps", Flag::kInt, "4000", Bound::kPositive},
                     bench::backend_flag(), Flag::jobs(), {"markdown"}},
                    run_bench);
}
