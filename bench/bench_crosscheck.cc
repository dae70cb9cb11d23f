// bench_crosscheck — fluid vs packet cross-validation of Table 1.
//
// Every Table 1 protocol is evaluated through core::evaluate_protocol on
// BOTH simulation backends, and the per-metric protocol hierarchies are
// compared pairwise. Exact scores differ across substrates by design; the
// paper's ordinal claims ("AIMD loses less than MIMD", ...) are what must
// survive the substrate change. This is the end-to-end check that the
// engine layer's two backends describe the same physical situation.
//
// Usage: bench_crosscheck [--mbps=30] [--rtt-ms=42] [--buffer=100]
//                         [--senders=2] [--steps=4000]
//                         [--protocols=aimd(1,0.5),cubic(0.4,0.8)]
//                         [--topology=K] [--record[=dir[,classes=mask]]]
//                         [--scope-window=W] [--jobs=N] [--csv] [--markdown]
//                         [--telemetry] [--out=dir]
//
// --jobs=N fans the protocol × backend matrix out over N workers (default:
// AXIOMCC_JOBS env, else hardware concurrency; 1 = serial). Timing lands in
// the run's ledger record (bench/harness.h). The packet side runs under
// the EvalConfig PacketLimits clamps (see docs/architecture.md); --steps
// bounds the fluid side only once it exceeds them.
// --topology=K appends a parking-lot cross-check: every protocol runs the
// same K-bottleneck ScenarioSpec on both backends and the long flow's
// multi-hop beat-down (its tail share vs the single-link fair share) must
// land on the same side of fair on both substrates. The topology leg also
// runs a streaming MetricScope per cell and exports its run-level axiom
// estimates as bench counters (scope_fluid_*/scope_packet_*, worst case
// across protocols), so benchdiff can trend the metric view. --scope-window
// sets the scope window in steps (default 0 = one full-horizon window).
// --record[=dir[,classes=mask]] additionally flight-records every topology
// cell into dir (default --out) as crosscheck-<protocol>-<backend>.jsonl
// (lane filtering via the classes mask, e.g. classes=window+metric),
// provenance-stamped with the current git SHA for cross-SHA alignment in
// axiomcc-inspect.
// --record implies --topology=3 when --topology is absent.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "exp/crosscheck.h"
#include "scope/scope.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();

  exp::CrosscheckConfig cfg;
  cfg.base.link = fluid::make_link_mbps(args.get_double("mbps", 30.0),
                                        args.get_double("rtt-ms", 42.0),
                                        args.get_double("buffer", 100.0));
  cfg.base.num_senders = static_cast<int>(args.get_int("senders", 2));
  cfg.base.steps = args.get_int("steps", 4000);
  cfg.protocol_specs = args.get_list("protocols", "");
  cfg.jobs = h.jobs();

  if (!args.has("csv")) {
    std::printf("=== Fluid vs packet cross-check (Table 1 protocols) ===\n");
    std::printf(
        "Link: %.0f Mbps, %.0f ms RTT, %.0f MSS buffer, %d senders; %ld "
        "jobs\n\n",
        args.get_double("mbps", 30.0), args.get_double("rtt-ms", 42.0),
        args.get_double("buffer", 100.0), cfg.base.num_senders, cfg.jobs);
  }

  // --record rides the topology leg (per-cell recordings), so asking for
  // it without --topology implies the default 3-bottleneck parking lot.
  const auto record = h.record();
  int topology_bottlenecks = static_cast<int>(args.get_int("topology", 0));
  if (record && topology_bottlenecks == 0) topology_bottlenecks = 3;

  WallTimer timer;
  const exp::CrosscheckResult result = exp::run_crosscheck(cfg);
  const double run_seconds = timer.seconds();

  // --topology=K: the parking-lot structural check rides along after the
  // single-link matrix, reusing the link and protocol flags. The streaming
  // scope is always on here — its run-channel estimates feed the bench
  // counters below.
  exp::TopologyCheckResult topo_result;
  double topo_seconds = 0.0;
  if (topology_bottlenecks > 0) {
    exp::TopologyCheckConfig topo_cfg;
    topo_cfg.per_link = cfg.base.link;
    topo_cfg.bottlenecks = topology_bottlenecks;
    topo_cfg.protocol_specs = cfg.protocol_specs;
    topo_cfg.jobs = cfg.jobs;
    topo_cfg.scope.enabled = true;
    topo_cfg.scope.window_steps = args.get_int("scope-window", 0);
    if (record) {
      topo_cfg.record.enabled = true;
      topo_cfg.record.classes = record->classes;
      topo_cfg.record_dir = record->dir;
    }
    WallTimer topo_timer;
    topo_result = exp::run_topology_crosscheck(topo_cfg);
    topo_seconds = topo_timer.seconds();
  }

  BenchReport& bench = h.report();
  bench.add_phase("run_crosscheck", run_seconds);
  if (topology_bottlenecks > 0) {
    bench.add_phase("run_topology_crosscheck", topo_seconds);
    bench.add_counter("topology_entries",
                      static_cast<double>(topo_result.entries.size()));
    bench.add_counter("topology_agreeing",
                      static_cast<double>(topo_result.agreeing_entries()));
    // Worst-case run-channel scope estimates across protocols, per
    // backend: the floor of the good-is-high axes and the ceiling of
    // loss avoidance (lower is better), so benchdiff trends the weakest
    // metric view rather than an average that hides regressions.
    for (const auto* side : {"fluid", "packet"}) {
      const bool is_fluid = side == std::string("fluid");
      double eff = 1.0;
      double fair = 1.0;
      double loss = 0.0;
      for (const auto& e : topo_result.entries) {
        const scope::ScopeSeries& s =
            is_fluid ? e.fluid_scope : e.packet_scope;
        eff = std::min(eff, s.last(scope::SubjectKind::kRun, -1,
                                   scope::Axis::kEfficiency, 1.0));
        fair = std::min(fair, s.last(scope::SubjectKind::kRun, -1,
                                     scope::Axis::kFairness, 1.0));
        loss = std::max(loss, s.last(scope::SubjectKind::kRun, -1,
                                     scope::Axis::kLossAvoidance, 0.0));
      }
      const std::string prefix = std::string("scope_") + side + "_";
      bench.add_counter(prefix + "efficiency", eff);
      bench.add_counter(prefix + "fairness", fair);
      bench.add_counter(prefix + "loss", loss);
    }
  }
  bench.add_counter("protocols",
                    static_cast<double>(result.entries.size()));
  bench.add_counter("metrics",
                    static_cast<double>(result.agreements.size()));
  bench.add_counter("agreeing_metrics",
                    static_cast<double>(result.agreeing_metrics()));
  double pairs = 0.0;
  double agreeing_pairs = 0.0;
  for (const auto& a : result.agreements) {
    pairs += a.pairs;
    agreeing_pairs += a.agreeing_pairs;
  }
  bench.add_counter("hierarchy_pairs", pairs);
  bench.add_counter("agreement_rate",
                    pairs > 0.0 ? agreeing_pairs / pairs : 1.0);
  h.finish("both");

  if (args.has("csv")) {
    // stdout stays pure CSV.
    std::ostringstream out;
    exp::write_crosscheck_csv(result, out);
    if (topology_bottlenecks > 0) {
      exp::write_topology_crosscheck_csv(topo_result, out);
    }
    std::printf("%s", out.str().c_str());
    return 0;
  }

  const auto format = args.has("markdown") ? TextTable::Format::kMarkdown
                                           : TextTable::Format::kAscii;

  TextTable scores;
  scores.set_header({"Protocol", "Backend", "Eff", "Loss", "Fair", "Conv",
                     "Friendly", "FastUtil", "Robust", "Latency"});
  for (const auto& e : result.entries) {
    for (const auto* side : {"fluid", "packet"}) {
      const core::MetricReport& r =
          side == std::string("fluid") ? e.fluid : e.packet;
      scores.add_row({e.protocol, side, TextTable::num(r.efficiency, 3),
                      TextTable::num(r.loss_avoidance, 3),
                      TextTable::num(r.fairness, 3),
                      TextTable::num(r.convergence, 3),
                      TextTable::num(r.tcp_friendliness, 3),
                      TextTable::num(r.fast_utilization, 3),
                      TextTable::num(r.robustness, 3),
                      TextTable::num(r.latency_avoidance, 3)});
    }
  }
  std::printf("%s\n", scores.render(format).c_str());

  TextTable agreement;
  agreement.set_header(
      {"Metric", "Pairs", "Agree", "Match", "Fluid order (worst→best)",
       "Packet order (worst→best)"});
  for (const auto& a : result.agreements) {
    agreement.add_row({core::metric_name(a.metric), std::to_string(a.pairs),
                       std::to_string(a.agreeing_pairs),
                       a.matches ? "yes" : "NO", a.fluid_order,
                       a.packet_order});
  }
  std::printf("%s\n", agreement.render(format).c_str());

  if (topology_bottlenecks > 0) {
    TextTable topo;
    topo.set_header({"Protocol", "Bottlenecks", "FluidShare", "PacketShare",
                     "FairShare", "BeatDown"});
    for (const auto& e : topo_result.entries) {
      topo.add_row({e.protocol, std::to_string(e.bottlenecks),
                    TextTable::num(e.fluid_long_share, 3),
                    TextTable::num(e.packet_long_share, 3),
                    TextTable::num(e.fair_share, 3),
                    e.beat_down_agrees ? "agree" : "DISAGREE"});
    }
    std::printf("%s\n", topo.render(format).c_str());
    std::printf(
        "Topology: %d of %zu parking-lot entries agree on the long flow's\n"
        "multi-hop beat-down.\n",
        topo_result.agreeing_entries(), topo_result.entries.size());
  }

  std::printf(
      "Agreement: %d of %zu metrics, %.0f of %.0f hierarchy pairs "
      "(%.0f%%).\n"
      "Notes:\n"
      " * absolute scores are NOT expected to match across substrates —\n"
      "   only the pairwise orderings the fluid side separates cleanly.\n"
      " * fast-utilization/robustness/latency columns are informational:\n"
      "   the packet probes run under PacketLimits clamps, so their\n"
      "   scales differ (see docs/architecture.md).\n",
      result.agreeing_metrics(), result.agreements.size(), agreeing_pairs,
      pairs, pairs > 0.0 ? 100.0 * agreeing_pairs / pairs : 100.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "crosscheck",
                    {"mbps", "rtt-ms", "buffer", "senders", "steps",
                     "protocols", "topology", "record", "scope-window", "jobs",
                     "csv", "markdown"},
                    run_bench);
}
