// bench_gauntlet — the protocol robustness gauntlet.
//
// Every registered protocol family runs through the adversarial scenario
// library (outage, flap, oscillation, sawtooth, loss storm, RTT step, flow
// churn) across several seeds, each cell under the guarded runner, and the
// per-protocol scorecard is rendered alongside the eight axiom metrics.
// Cells that diverge appear as fault rows instead of aborting the sweep.
//
// Usage: bench_gauntlet [--mbps=30] [--rtt-ms=42] [--buffer=100]
//                       [--senders=2] [--steps=900] [--seeds=3]
//                       [--protocols=reno,cubic-linux] [--no-axioms]
//                       [--backend=fluid|packet] [--topology=K] [--jobs=N]
//                       [--cells] [--csv] [--markdown]
//                       [--record[=dir[,classes=window+loss]]]
//                       [--telemetry] [--out=dir]
//
// --jobs=N fans the protocol × scenario × seed matrix out over N workers
// (default: AXIOMCC_JOBS env, else hardware concurrency; 1 = serial). Timing
// lands in the run's ledger record (bench/harness.h).
// --backend selects the simulator the cells run on (default fluid). The
// packet backend runs the same scenario matrix on the dumbbell DES; RTT-step
// scenarios scale only the forward path there (see docs/stress.md).
// --topology=K runs every cell on a K-bottleneck parking lot (one long flow
// over all hops plus senders-1 cross flows per link) instead of the single
// shared link; 0 (the default) keeps the pre-topology gauntlet bit-identical.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "engine/scenario.h"
#include "exp/gauntlet.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();

  const double mbps = args.get_double("mbps");
  const double rtt_ms = args.get_double("rtt-ms");
  const double buffer = args.get_double("buffer");
  exp::GauntletConfig cfg;
  cfg.link = fluid::make_link_mbps(mbps, rtt_ms, buffer);
  cfg.num_senders = static_cast<int>(args.get_int("senders"));
  cfg.steps = args.get_int("steps");
  cfg.seeds.clear();
  const long num_seeds = args.get_int("seeds");
  for (long s = 1; s <= num_seeds; ++s) {
    cfg.seeds.push_back(static_cast<std::uint64_t>(s));
  }
  cfg.include_axiom_metrics = !args.has("no-axioms");
  // The gauntlet propagates the backend into axiom_cfg itself.
  cfg.backend = h.backend();
  cfg.topology_bottlenecks = static_cast<int>(args.get_int("topology"));
  cfg.jobs = h.jobs();
  // --record[=dir[,classes=list]]: flight-record every cell and dump a
  // post-mortem for each faulting one next to the other artifacts. A
  // classes list narrows capture to the named event lanes.
  if (const auto record = h.record()) {
    cfg.record.enabled = true;
    cfg.record.classes = record->classes;
    cfg.record_dir = record->dir;
  }
  // Trimmed axiom evaluation: the gauntlet's own scores carry the
  // stress story; the axiom columns are context.
  cfg.axiom_cfg.steps = 2000;
  cfg.axiom_cfg.fast_utilization_steps = 1000;
  cfg.axiom_cfg.robustness_steps = 1200;

  // An empty --protocols list runs the default roster.
  const std::vector<std::string> specs =
      args.get_list("protocols").empty() ? exp::default_gauntlet_specs()
                                         : args.get_list("protocols");

  if (!args.has("csv")) {
    std::printf("=== Robustness gauntlet ===\n");
    std::printf(
        "Link: %.0f Mbps, %.0f ms RTT, %.0f MSS buffer; %d senders, %ld "
        "steps, %zu seeds, %zu protocols, %ld jobs\n\n",
        mbps, rtt_ms, buffer, cfg.num_senders, cfg.steps,
        cfg.seeds.size(), specs.size(), cfg.jobs);
    if (cfg.topology_bottlenecks > 0) {
      std::printf("Topology: %d-bottleneck parking lot per cell\n\n",
                  cfg.topology_bottlenecks);
    }
  }

  WallTimer timer;
  const exp::GauntletResult result = exp::run_gauntlet(specs, cfg);
  const double run_seconds = timer.seconds();

  BenchReport& bench = h.report();
  bench.add_phase("run_gauntlet", run_seconds);
  bench.add_counter("cells", static_cast<double>(result.cells.size()));
  bench.add_counter("cells_per_sec",
                    static_cast<double>(result.cells.size()) / run_seconds);
  bench.add_counter("failed_cells",
                    static_cast<double>(result.failed_cells()));
  h.finish(engine::backend_name(cfg.backend));  // stderr only: --csv stays pure

  if (args.has("csv")) {
    // Keep stdout pure CSV (byte-comparable across job counts).
    std::ostringstream out;
    if (args.has("cells")) {
      exp::write_gauntlet_csv(result.cells, out);
    } else {
      exp::write_scorecard_csv(result.scorecard, out);
    }
    std::printf("%s", out.str().c_str());
    return 0;
  }

  const auto format = args.has("markdown") ? TextTable::Format::kMarkdown
                                           : TextTable::Format::kAscii;

  if (args.has("cells")) {
    TextTable table;
    table.set_header({"Protocol", "Scenario", "Seed", "Status", "Util",
                      "Retention", "Recovery", "Fairness", "Loss"});
    for (const auto& cell : result.cells) {
      table.add_row({cell.protocol, cell.scenario,
                     std::to_string(cell.seed),
                     stress::fault_kind_name(cell.fault.kind),
                     TextTable::num(cell.utilization, 3),
                     TextTable::num(cell.throughput_retention, 3),
                     TextTable::num(cell.recovery_steps, 0),
                     TextTable::num(cell.fairness, 3),
                     TextTable::num(cell.loss_rate, 3)});
    }
    std::printf("%s\n", table.render(format).c_str());
    return 0;
  }

  TextTable table;
  table.set_header({"Protocol", "Cells", "Failed", "Util", "Retention",
                    "WorstRet", "Recovery", "Unrecovered", "WorstFair",
                    "Robust(VI)", "Efficiency", "Friendly"});
  for (const auto& s : result.scorecard) {
    table.add_row(
        {s.protocol, std::to_string(s.cells), std::to_string(s.failed_cells),
         TextTable::num(s.mean_utilization, 3),
         TextTable::num(s.mean_retention, 3),
         TextTable::num(s.worst_retention, 3),
         TextTable::num(s.mean_recovery_steps, 0),
         std::to_string(s.unrecovered_cells),
         TextTable::num(s.worst_fairness, 3),
         cfg.include_axiom_metrics && s.axiom_fault.ok()
             ? TextTable::num(s.axioms.robustness, 3)
             : "-",
         cfg.include_axiom_metrics && s.axiom_fault.ok()
             ? TextTable::num(s.axioms.efficiency, 3)
             : "-",
         cfg.include_axiom_metrics && s.axiom_fault.ok()
             ? TextTable::num(s.axioms.tcp_friendliness, 3)
             : "-"});
  }
  std::printf("%s\n", table.render(format).c_str());

  std::printf(
      "Notes:\n"
      " * %d of %zu cells faulted (see --cells for the per-cell matrix,\n"
      "   --csv for machine-readable output).\n"
      " * Retention is tail utilization relative to the protocol's\n"
      "   unperturbed baseline; Recovery is in steps after the outage.\n",
      result.failed_cells(), result.cells.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "gauntlet",
                    {{"mbps", Flag::kReal, "30", Bound::kPositive},
                     {"rtt-ms", Flag::kReal, "42", Bound::kPositive},
                     {"buffer", Flag::kReal, "100", Bound::kNonNegative},
                     {"senders", Flag::kInt, "2", Bound::kPositive},
                     // exp::run_gauntlet needs at least 100 steps.
                     {"steps", Flag::kInt, "900",
                      {100.0, Bound::kMax, "", " >= 100"}},
                     {"seeds", Flag::kInt, "3", Bound::kPositive},
                     {"protocols", Flag::kList}, {"no-axioms"},
                     bench::backend_flag(),
                     {"topology", Flag::kInt, "0", Bound::kNonNegative},
                     Flag::jobs(), bench::record_flag(), {"cells"}, {"csv"},
                     {"markdown"}},
                    run_bench);
}
