// bench_table2 — regenerates the paper's Table 2: TCP-friendliness of
// Robust-AIMD(1,0.8,0.01) vs PCC across (n, BW) ∈ {2,3,4} × {20,30,60,100},
// RTT 42 ms, buffer 100 MSS.
//
// Each cell is the improvement factor friendliness(R-AIMD)/friendliness(PCC);
// the paper reports consistently >1.5×, 1.92× on average.
//
// By default the grid runs on the fluid model; --backend=packet re-measures
// it on the packet-level simulator (the substrate the paper's Emulab numbers
// came from; a few seconds of CPU).
//
// Usage: bench_table2 [--steps=4000] [--backend=fluid|packet]
//                     [--duration=30] [--jobs=N] [--markdown]
//                     [--telemetry] [--out=dir]
//
// --jobs=N fans the (n, BW) grid out over N workers (default: AXIOMCC_JOBS
// env, else hardware concurrency; 1 = serial). Timing lands in the run's
// ledger record, filed under the backend it ran on (bench/harness.h).
#include <cmath>
#include <cstdio>

#include "bench/harness.h"
#include "engine/scenario.h"
#include "exp/table2.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  exp::Table2Config cfg;
  cfg.steps = args.get_int("steps", 4000);
  cfg.jobs = h.jobs();

  const engine::BackendKind backend = h.backend();
  const bool packet = backend == engine::BackendKind::kPacket;
  std::printf("=== Table 2: TCP-friendliness of Robust-AIMD(1,0.8,0.01) vs "
              "PCC (%s substrate) ===\n",
              packet ? "packet-level" : "fluid");
  std::printf("RTT 42 ms, buffer 100 MSS; cell = improvement factor; "
              "%ld jobs\n\n",
              cfg.jobs);

  WallTimer timer;
  const auto cells =
      packet ? exp::build_table2_packet(cfg, args.get_double("duration", 30.0))
             : exp::build_table2(cfg);
  const double grid_seconds = timer.seconds();

  TextTable table;
  table.set_header({"(n,BW)", "R-AIMD friendliness", "PCC friendliness",
                    "improvement"});
  double product = 1.0;
  std::size_t above_1_5 = 0;
  for (const auto& cell : cells) {
    // Appended rather than built as `"(" + ...`: GCC 12 warns (-Wrestrict,
    // a false positive) on a literal prepended to a temporary string.
    std::string label = "(";
    label += std::to_string(cell.n) + "," +
             std::to_string(static_cast<int>(cell.bandwidth_mbps)) + ")";
    table.add_row({label,
                   TextTable::num(cell.robust_aimd_friendliness, 4),
                   TextTable::num(cell.pcc_friendliness, 4),
                   TextTable::num(cell.improvement(), 2) + "x"});
    product *= cell.improvement();
    if (cell.improvement() > 1.5) ++above_1_5;
  }
  std::printf("%s\n", table.render(args.has("markdown")
                                       ? TextTable::Format::kMarkdown
                                       : TextTable::Format::kAscii)
                          .c_str());

  const double geomean =
      std::pow(product, 1.0 / static_cast<double>(cells.size()));
  std::printf("geometric-mean improvement: %.2fx (paper: 1.92x average)\n",
              geomean);
  std::printf("cells above 1.5x: %zu / %zu (paper: consistently >1.5x)\n",
              above_1_5, cells.size());

  BenchReport& bench = h.report();
  bench.add_phase(packet ? "build_table2_packet" : "build_table2",
                  grid_seconds);
  bench.add_counter("cells", static_cast<double>(cells.size()));
  bench.add_counter("cells_per_sec",
                    static_cast<double>(cells.size()) / grid_seconds);
  h.finish(engine::backend_name(backend));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "table2",
                    {"steps", "duration", "backend", "jobs", "markdown"},
                    run_bench);
}
