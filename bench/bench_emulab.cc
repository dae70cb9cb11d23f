// bench_emulab — the Section 5.1 validation experiment on the packet-level
// simulator (the repository's Emulab substitute).
//
// Runs TCP Reno / Cubic / Scalable over the (n, bandwidth, buffer) grid and,
// for every metric, checks that the measured protocol hierarchy matches the
// theory-induced one — the paper's reported "preliminary finding".
//
// The full paper grid (3 × 4 × 2 cells × 6 runs each) takes a few minutes;
// the default here is a representative sub-grid. Pass --full for the paper's
// complete grid.
//
// Usage: bench_emulab [--full] [--duration=30] [--jobs=N] [--telemetry]
//                     [--out=dir]
//
// --jobs=N fans the (n, bandwidth, buffer) grid out over N workers (default:
// AXIOMCC_JOBS env, else hardware concurrency; 1 = serial). Timing lands in
// the run's ledger record (bench/harness.h).
// This bench is inherently packet-level (it validates fluid-model theory
// against the packet substrate), so it takes no --backend flag; the grid
// always runs on engine::PacketBackend and the theory side on the fluid
// model.
#include <cstdio>

#include "bench/harness.h"
#include "exp/emulab.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();

  exp::EmulabGridConfig cfg;
  cfg.duration_seconds = args.get_double("duration");
  cfg.jobs = h.jobs();
  if (!args.has("full")) {
    cfg.sender_counts = {2, 4};
    cfg.bandwidths_mbps = {20.0, 60.0};
    cfg.buffers_packets = {10, 100};
  }

  std::printf("=== Section 5.1: Emulab-style validation (packet-level "
              "simulator) ===\n");
  std::printf("grid: n in {");
  for (int n : cfg.sender_counts) std::printf("%d ", n);
  std::printf("}, BW in {");
  for (double bw : cfg.bandwidths_mbps) std::printf("%.0f ", bw);
  std::printf("} Mbps, buffer in {");
  for (auto b : cfg.buffers_packets) std::printf("%zu ", b);
  std::printf("} MSS, RTT 42 ms, %.0f s per run, %ld jobs\n\n",
              cfg.duration_seconds, cfg.jobs);

  WallTimer timer;
  const auto cells = exp::run_emulab_grid(cfg);
  const double grid_seconds = timer.seconds();

  std::size_t total_verdicts = 0;
  std::size_t matching = 0;

  for (const auto& cell : cells) {
    std::printf("--- n=%d, BW=%.0f Mbps, buffer=%zu MSS ---\n", cell.n,
                cell.bandwidth_mbps, cell.buffer_packets);

    TextTable scores;
    scores.set_header({"protocol", "efficiency", "loss", "fairness", "conv",
                       "tcp-friendliness"});
    for (const auto& p : cell.protocols) {
      scores.add_row({p.protocol, TextTable::num(p.efficiency, 3),
                      TextTable::num(p.loss_rate, 4),
                      TextTable::num(p.fairness, 3),
                      TextTable::num(p.convergence, 3),
                      TextTable::num(p.tcp_friendliness, 3)});
    }
    std::printf("%s", scores.render().c_str());

    TextTable verdicts;
    verdicts.set_header({"metric", "measured order (worst->best)",
                         "theory order", "hierarchy matches"});
    for (const auto& v : exp::check_hierarchies(cell)) {
      verdicts.add_row({core::metric_name(v.metric), v.measured_order,
                        v.theory_order, v.matches ? "yes" : "NO"});
      ++total_verdicts;
      if (v.matches) ++matching;
    }
    std::printf("%s\n", verdicts.render().c_str());
  }

  std::printf("=== hierarchy agreement: %zu / %zu metric-cells match the "
              "theory (paper: all) ===\n",
              matching, total_verdicts);

  BenchReport& bench = h.report();
  bench.add_phase("run_emulab_grid", grid_seconds);
  bench.add_phase("check_hierarchies", timer.seconds() - grid_seconds);
  bench.add_counter("cells", static_cast<double>(cells.size()));
  bench.add_counter("cells_per_sec",
                    static_cast<double>(cells.size()) / grid_seconds);
  h.finish("packet");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "emulab",
                    {{"full"},
                     {"duration", Flag::kReal, "30", Bound::kPositive},
                     Flag::jobs()},
                    run_bench);
}
