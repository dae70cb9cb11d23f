// bench_table1 — regenerates the paper's Table 1 (protocol characterization).
//
// For each protocol family instance: the nuanced closed-form score (function
// of C, τ, n), the worst-case angle-bracket bound, and the score measured on
// the fluid model, for all eight metrics.
//
// Usage: bench_table1 [--mbps=30] [--rtt-ms=42] [--buffer=100] [--senders=2]
//                     [--steps=4000] [--backend=fluid|packet] [--jobs=N]
//                     [--markdown] [--telemetry] [--out=dir]
//
// --jobs=N fans the rows out over N workers (default: AXIOMCC_JOBS env, else
// hardware concurrency; 1 = serial). Timing lands in the run's ledger record
// (<out>/ledger.jsonl; bench/harness.h has the common flags).
// --backend selects the simulator the measured column runs on (default
// fluid; packet runs under PacketLimits clamps).
// --telemetry records the metrics registry + trace spans: the snapshot rides
// in the ledger record and <out>/trace_table1.json opens in Perfetto.
#include <cstdio>

#include "bench/harness.h"
#include "engine/scenario.h"
#include "exp/table1.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

std::string cell(double nuanced, double worst, double measured) {
  return TextTable::num(nuanced, 3) + " <" + TextTable::num(worst, 3) + "> | " +
         TextTable::num(measured, 3);
}

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  const double mbps = args.get_double("mbps");
  const double rtt_ms = args.get_double("rtt-ms");
  const double buffer = args.get_double("buffer");
  core::EvalConfig cfg;
  cfg.link = fluid::make_link_mbps(mbps, rtt_ms, buffer);
  cfg.num_senders = static_cast<int>(args.get_int("senders"));
  cfg.steps = args.get_int("steps");
  cfg.backend = h.backend();
  const long jobs = h.jobs();
  if (cfg.backend != engine::BackendKind::kFluid) {
    std::printf("Backend: %s (packet runs under PacketLimits clamps)\n",
                engine::backend_name(cfg.backend));
  }

  std::printf("=== Table 1: protocol characterization ===\n");
  std::printf(
      "Link: %.0f Mbps, %.0f ms RTT, %.0f MSS buffer, %d senders, %ld "
      "jobs\n",
      mbps, rtt_ms, buffer, cfg.num_senders, jobs);
  std::printf("Cell format: theory <worst-case> | measured\n\n");

  WallTimer timer;
  const auto rows = exp::build_table1(cfg, jobs);
  const double build_seconds = timer.seconds();

  TextTable table;
  table.set_header({"Protocol", "Efficiency", "Loss-Avoiding",
                    "Fast-Utilizing", "TCP-Friendly", "Fair", "Conv",
                    "Robust", "Latency"});
  for (const auto& row : rows) {
    const auto& th = row.theory_nuanced;
    const auto& wc = row.theory_worst;
    const auto& me = row.measured;
    table.add_row(
        {row.protocol,
         cell(th.efficiency, wc.efficiency, me.efficiency),
         cell(th.loss_avoidance, wc.loss_avoidance, me.loss_avoidance),
         cell(th.fast_utilization, wc.fast_utilization, me.fast_utilization),
         cell(th.tcp_friendliness, wc.tcp_friendliness, me.tcp_friendliness),
         cell(th.fairness, wc.fairness, me.fairness),
         cell(th.convergence, wc.convergence, me.convergence),
         cell(th.robustness, wc.robustness, me.robustness),
         cell(th.latency_avoidance, wc.latency_avoidance,
              me.latency_avoidance)});
  }
  std::printf("%s\n", table.render(args.has("markdown")
                                       ? TextTable::Format::kMarkdown
                                       : TextTable::Format::kAscii)
                          .c_str());

  std::printf(
      "Notes:\n"
      " * measured fast-utilization of super-linear protocols (MIMD) is\n"
      "   horizon-limited; the theory value is unbounded (<inf>).\n"
      " * MIMD/BIN loss cells use the model-derived bounds (see theory.h\n"
      "   and EXPERIMENTS.md for the discrepancy notes vs the printed\n"
      "   paper cells).\n");

  BenchReport& bench = h.report();
  bench.add_phase("build_table1", build_seconds);
  bench.add_counter("cells", static_cast<double>(rows.size()));
  bench.add_counter("cells_per_sec",
                    static_cast<double>(rows.size()) / build_seconds);
  h.finish(engine::backend_name(cfg.backend));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "table1",
                    {{"mbps", Flag::kReal, "30", Bound::kPositive},
                     {"rtt-ms", Flag::kReal, "42", Bound::kPositive},
                     {"buffer", Flag::kReal, "100", Bound::kNonNegative},
                     {"senders", Flag::kInt, "2", Bound::kPositive},
                     {"steps", Flag::kInt, "4000", Bound::kPositive},
                     bench::backend_flag(), Flag::jobs(), {"markdown"}},
                    run_bench);
}
