// main.cc — the perfbench runner: runs one named workload in this process as
// a closed loop with a single client (each op starts when the previous one
// returns) and prints every metric with its unit.
//
//   perfbench --workload=<eval-fluid|eval-packet|population|routed>
//             --seed=<n> --seconds=<s> --trace=<0|1> [--out=<dir>] [--short]
//
// --trace=0 measures the end-to-end metrics with no span recorded; their
// times are host CPU time of this process (cpu_seconds), so time the VM or
// the process waits for a CPU does not count. --trace=1 alternates untraced
// and traced rounds of the same ops, then probes single layers, and reports
// the per-layer metrics from the spans (exported as a Chrome trace and read
// back from that file).
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics ({name: {value, unit}}).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "ledger/ledger.h"
#include "ledger/provenance.h"
#include "util/bench_json.h"
#include "util/stats.h"
#include "util/task_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace=0). Mirrors BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_s_p50", "s"},
    {"op_s_tail", "s"},
    {"ops_per_s", "1/s"},
    {"sender_steps_per_s", "1/s"},
    {"ok_frac", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics (--trace=1). Mirrors BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"core.shared_link_s", "s"},
    {"core.estimators_s", "s"},
    {"core.fast_util_s", "s"},
    {"core.robustness_s", "s"},
    {"core.friendliness_s", "s"},
    {"core.backend_runs", "count"},
    {"core.covered_frac", "ratio"},
    {"engine.validate_s", "s"},
    {"engine.expand_s", "s"},
    {"engine.expanded_flows", "count"},
    {"fluid.scalar_ns_per_cell", "ns"},
    {"fluid.uniform_ns_per_cell", "ns"},
    {"fluid.materialized_ns_per_cell", "ns"},
    {"fluid.network_ns_per_link_flow_step", "ns"},
    {"fluid.loss_sample_ns", "ns"},
    {"cc.batch.aimd_ns_per_cell", "ns"},
    {"cc.batch.mimd_ns_per_cell", "ns"},
    {"cc.batch.robust_aimd_ns_per_cell", "ns"},
    {"cc.batch.bin_ns_per_cell", "ns"},
    {"cc.batch.highspeed_ns_per_cell", "ns"},
    {"cc.scalar.aimd_ns_per_call", "ns"},
    {"cc.scalar.mimd_ns_per_call", "ns"},
    {"cc.scalar.bin_ns_per_call", "ns"},
    {"cc.scalar.cubic_ns_per_call", "ns"},
    {"cc.scalar.robust_aimd_ns_per_call", "ns"},
    {"cc.scalar.vegas_ns_per_call", "ns"},
    {"cc.scalar.pcc_ns_per_call", "ns"},
    {"cc.scalar.bbr_ns_per_call", "ns"},
    {"cc.scalar.cautious_ns_per_call", "ns"},
    {"cc.scalar.highspeed_ns_per_call", "ns"},
    {"cc.scalar.westwood_ns_per_call", "ns"},
    {"cc.scalar.illinois_ns_per_call", "ns"},
    {"cc.scalar.veno_ns_per_call", "ns"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.dumbbell_run_s", "s"},
    {"sim.multihop_run_s", "s"},
    {"util.parallel_speedup", "ratio"},
    {"scope.overhead_s", "s"},
    {"scope.windows", "count"},
    {"recorder.overhead_s", "s"},
    {"recorder.events", "count"},
    {"recorder.dropped_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Set-up passes per run: at least kMinSetupPasses, more while their CPU
/// time is under kSetupSeconds, at most kMaxSetupPasses. setup_s is their
/// median; a cheap set-up gets many passes, so the median is steady.
constexpr int kMinSetupPasses = 7;
constexpr int kMaxSetupPasses = 101;
constexpr double kSetupSeconds = 0.5;
/// CPU time spent on host-speed calibration slices, as a share of the CPU
/// time of the set-up passes and ops they are interleaved with.
constexpr double kCalibrationShare = 0.1;
/// Rounds a --trace=0 run always completes. With at least 11 rounds the
/// samples beyond op_s_tail all come from the slowest input, so the tail
/// does not jump between inputs as the round count varies.
constexpr long kMinRounds = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string out = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload=<eval-fluid|"
               "eval-packet|population|routed> --seed=<n> --seconds=<s> "
               "--trace=<0|1> [--out=<dir>] [--short]\n",
               error.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key == "--short") {
      args.short_mode = true;
      continue;
    }
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--out") {
        args.out = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + key + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Op times and outcomes of the rounds run with one span setting. Op
/// times are host CPU time (cpu_seconds) as measured; `slice_at` holds the
/// calibration slice count right after each op, which places the op among
/// the slices. `cpu` is their sum and `wall` the steady-clock length of the
/// rounds, calibration slices included.
struct Phase {
  std::vector<double> op_seconds;
  std::vector<std::size_t> slice_at;
  std::vector<std::size_t> input_of;
  std::vector<long> ok_per_input;
  long attempted = 0;
  long failed = 0;
  double cpu = 0.0;
  double wall = 0.0;
};

void note_error(std::vector<std::string>& errors, const std::string& e) {
  if (errors.size() < 5) errors.push_back(e);
}

/// The closed loop: whole rounds until `seconds` have passed and at least
/// `min_rounds` rounds per variant are done. Rounds cycle through the span
/// variants, so with two (untraced, traced) both sample the same stretch of
/// host noise; each variant's rounds then come in pairs, so a workload that
/// alternates how it splits an op sees every input both ways equally often.
/// After every op `speed` runs calibration slices to keep pace with the ops.
std::vector<Phase> run_rounds(Workload& w, const std::vector<Spans*>& variants,
                              double seconds, long min_rounds,
                              HostSpeed& speed,
                              std::vector<std::string>& errors) {
  const long n = static_cast<long>(variants.size());
  const long period = n == 1 ? 1 : 2 * n;
  std::vector<Phase> phases(variants.size());
  for (Phase& p : phases) {
    p.ok_per_input.assign(w.inputs(), 0);
  }
  double op_cpu = 0.0;
  const double start = now_seconds();
  for (long r = 0; r % period != 0 || r < min_rounds * n ||
                   now_seconds() - start < seconds;
       ++r) {
    Phase& p = phases[static_cast<std::size_t>(r % n)];
    Spans& spans = *variants[static_cast<std::size_t>(r % n)];
    const double round_start = now_seconds();
    for (std::size_t i = 0; i < w.inputs(); ++i) {
      const double t0 = cpu_seconds();
      bool ok = true;
      try {
        w.run_op(i, r / n, spans);
      } catch (const std::exception& e) {
        ok = false;
        note_error(errors, e.what());
      }
      p.op_seconds.push_back(cpu_seconds() - t0);
      p.slice_at.push_back(speed.slices());
      p.input_of.push_back(i);
      p.cpu += p.op_seconds.back();
      op_cpu += p.op_seconds.back();
      ++p.attempted;
      if (ok) {
        ++p.ok_per_input[i];
      } else {
        ++p.failed;
      }
      spans.drain();
      speed.keep_up(op_cpu, kCalibrationShare);
    }
    p.wall += now_seconds() - round_start;
  }
  return phases;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::unique_ptr<Workload> make_workload(const Args& args, long jobs) {
  if (args.workload == "eval-fluid") {
    return make_eval_workload(false, args.short_mode);
  }
  if (args.workload == "eval-packet") {
    return make_eval_workload(true, args.short_mode);
  }
  if (args.workload == "population") {
    return make_population_workload(jobs, args.short_mode);
  }
  if (args.workload == "routed") return make_routed_workload();
  usage("unknown workload " + args.workload);
}

int run(const Args& args) {
  const long nproc = axiomcc::hardware_jobs();
  const long jobs = args.workload == "population" ? std::min(nproc, 4L) : 1;
  std::unique_ptr<Workload> w = make_workload(args, jobs);
  std::vector<std::string> errors;
  long attempted = 0;
  long failed = 0;
  Spans untraced(false);

  // Host speed: a few slices first, then slices interleaved with the set-up
  // passes and ops, on as many threads as the workload's ops use. Each
  // set-up pass and op is scaled by the slowdown of the slices around it.
  HostSpeed speed(static_cast<int>(jobs));
  for (int i = 0; i < 4; ++i) speed.sample();

  // Set-up: build every input from the seed, then one warm-up op, so caches
  // fill and lazy set-up finishes before any op is timed.
  std::vector<double> setup_seconds;
  std::vector<std::size_t> setup_slice_at;
  double setup_cpu = 0.0;
  const int min_passes = args.short_mode ? 1 : kMinSetupPasses;
  const int max_passes = args.short_mode ? 1 : kMaxSetupPasses;
  for (int pass = 0; pass < max_passes &&
                     (pass < min_passes || setup_cpu < kSetupSeconds);
       ++pass) {
    speed.sample();
    const double t0 = cpu_seconds();
    w->setup(args.seed);
    ++attempted;
    try {
      w->run_op(0, 0, untraced);
    } catch (const std::exception& e) {
      ++failed;
      note_error(errors, e.what());
    }
    setup_seconds.push_back(cpu_seconds() - t0);
    setup_slice_at.push_back(speed.slices());
    setup_cpu += setup_seconds.back();
    speed.keep_up(setup_cpu, kCalibrationShare);
  }

  // --trace=0: every round untraced. --trace=1: rounds alternate between
  // untraced and traced, for trace.overhead_frac and the span log.
  const std::size_t timed_slices = speed.slices();
  Spans spans(true);
  std::vector<Spans*> variants = {&untraced};
  if (args.trace) variants.push_back(&spans);
  const long min_rounds = args.short_mode ? 1 : args.trace ? 2 : kMinRounds;
  const std::vector<Phase> phases =
      run_rounds(*w, variants, args.seconds, min_rounds, speed, errors);
  for (const Phase& p : phases) {
    attempted += p.attempted;
    failed += p.failed;
  }
  const Phase& timed = phases.front();
  // Every time metric is CPU time divided by the host's slowdown around
  // the set-up pass or op it measures.
  const auto scaled = [&speed](const std::vector<double>& seconds,
                               const std::vector<std::size_t>& slice_at) {
    std::vector<double> out(seconds.size());
    for (std::size_t i = 0; i < seconds.size(); ++i) {
      out[i] = seconds[i] / speed.slowdown_around(slice_at[i]);
    }
    return out;
  };
  const std::vector<double> setup_scaled =
      scaled(setup_seconds, setup_slice_at);
  const std::vector<double> op_scaled =
      scaled(timed.op_seconds, timed.slice_at);
  const double slowdown = speed.slowdown(timed_slices, speed.slices());

  CheckTally tally;
  w->finish(tally);
  if (args.trace) tally.run("layer probes", [&] { w->probe_layers(spans); });
  attempted += tally.attempted;
  failed += tally.failed;
  for (const std::string& e : tally.errors) note_error(errors, e);

  // --- end-to-end metrics --------------------------------------------------
  std::vector<double> sorted = op_scaled;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // op_s_tail: p99, or the highest percentile with 10 samples beyond it
  // when fewer than 1100 ops leave fewer than 10 beyond p99. Past 1100 ops
  // (eval-fluid) p99 stays put while the 11th-slowest op would be an ever
  // rarer host hiccup.
  const std::size_t p99_index =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  const std::size_t tail_index = n > 10 ? std::min(p99_index, n - 11) : n - 1;
  const double tail_pct =
      100.0 * static_cast<double>(tail_index + 1) / static_cast<double>(n);
  long ok_ops = 0;
  double sender_steps = 0.0;
  for (std::size_t i = 0; i < timed.ok_per_input.size(); ++i) {
    ok_ops += timed.ok_per_input[i];
    sender_steps +=
        static_cast<double>(timed.ok_per_input[i]) * w->sender_steps(i);
  }
  const double ops_seconds =
      std::accumulate(op_scaled.begin(), op_scaled.end(), 0.0);
  const double p50 = axiomcc::median_of(op_scaled);
  const double fail_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const std::vector<std::pair<std::string, double>> e2e = {
      {"setup_s", axiomcc::median_of(setup_scaled)},
      {"op_s_p50", p50},
      {"op_s_tail", sorted[tail_index]},
      {"ops_per_s", static_cast<double>(ok_ops) / ops_seconds},
      {"sender_steps_per_s", sender_steps / ops_seconds},
      {"ok_frac", 1.0 - fail_frac},
      {"peak_rss_mb", peak_rss_mb()},
  };

  // --- report ----------------------------------------------------------------
  const axiomcc::ledger::Provenance prov =
      axiomcc::ledger::current_provenance();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("provenance: git_sha=%s build_flavor=%s nproc=%ld jobs=%ld\n",
              prov.git_sha.c_str(), prov.build_flavor.c_str(), nproc, jobs);
  for (const std::string& note : w->notes()) {
    std::printf("input: %s\n", note.c_str());
  }
  std::printf("output digest: %s\n", hex(w->digest()).c_str());
  std::printf("ops: %ld attempted, %ld failed (fail_frac %.6g); timed phase "
              "%.3f s CPU in %.3f s wall, %zu ops in %ld rounds\n",
              attempted, failed, fail_frac, timed.cpu, timed.wall, n,
              static_cast<long>(n / std::max<std::size_t>(w->inputs(), 1)));
  const auto [setup_lo, setup_hi] =
      std::minmax_element(setup_seconds.begin(), setup_seconds.end());
  std::printf("set-up: %zu passes, CPU seconds as measured %.4g[%.4g-%.4g], "
              "scaled %.4g\n",
              setup_seconds.size(), axiomcc::median_of(setup_seconds),
              *setup_lo, *setup_hi, axiomcc::median_of(setup_scaled));
  for (const bool scale : {false, true}) {
    std::string medians;
    for (std::size_t i = 0; i < w->inputs(); ++i) {
      std::vector<double> times;
      for (std::size_t k = 0; k < timed.input_of.size(); ++k) {
        if (timed.input_of[k] == i) {
          times.push_back(scale ? op_scaled[k] : timed.op_seconds[k]);
        }
      }
      if (times.empty()) continue;
      const auto [lo, hi] = std::minmax_element(times.begin(), times.end());
      char buf[96];
      std::snprintf(buf, sizeof buf, " %.4g[%.4g-%.4g]",
                    axiomcc::median_of(times), *lo, *hi);
      medians += buf;
    }
    std::printf("op CPU seconds per input %s, median[min-max]:%s\n",
                scale ? "scaled" : "as measured", medians.c_str());
  }
  std::printf("host speed: %zu calibration slices in the timed phase, "
              "median %.4g ms CPU vs %.4g ms nominal, slowdown %.4f; op CPU "
              "p50 as measured %.6g s, scaled %.6g s\n",
              speed.slices() - timed_slices,
              slowdown * HostSpeed::kNominalSliceSeconds * 1e3,
              HostSpeed::kNominalSliceSeconds * 1e3, slowdown,
              axiomcc::median_of(timed.op_seconds), p50);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "op failure: %s\n", e.c_str());
  }

  axiomcc::BenchReport report("perfbench_" + args.workload);
  report.set_jobs(jobs);
  report.add_phase("setup", std::accumulate(setup_seconds.begin(),
                                            setup_seconds.end(), 0.0));
  report.add_phase("timed", timed.wall);

  std::vector<std::pair<std::string, double>> printed;
  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const std::size_t num_defs =
      args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (!args.trace) {
    printed = e2e;
    std::printf("op_s_tail is p%.4g of %zu timed ops (%zu beyond it); the "
                "11th-slowest op took %.6g s\n",
                tail_pct, n, n - 1 - tail_index, sorted[n > 10 ? n - 11 : 0]);
  } else {
    spans.drain();
    std::filesystem::create_directories(args.out);
    const std::string path =
        args.out + "/trace_" + args.workload + ".json";
    if (!axiomcc::telemetry::write_chrome_trace(path, spans.events())) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    const SpanSummary summary =
        summarize(axiomcc::telemetry::parse_chrome_trace(text.str()));
    LayerValues values;
    for (const MetricDef& d : kPerLayer) values[d.name] = 0.0;
    w->layer_metrics(summary, spans, values);
    const double traced_p50 = axiomcc::median_of(
        scaled(phases.back().op_seconds, phases.back().slice_at));
    values["trace.overhead_frac"] = traced_p50 / p50 - 1.0;
    if (values.size() != std::size(kPerLayer)) {
      std::fprintf(stderr, "error: a workload reported an unknown metric\n");
      return 1;
    }
    for (const MetricDef& d : kPerLayer) {
      printed.emplace_back(d.name, values[d.name]);
    }
    std::printf("trace: %zu spans (%llu dropped) in %s; untraced op CPU p50 "
                "%.6g s, traced %.6g s\n",
                spans.events().size(),
                static_cast<unsigned long long>(spans.dropped()), path.c_str(),
                p50, traced_p50);
    for (const auto& [layer, self] : summary.layer_self_seconds) {
      std::printf("layer self time: %-9s %.6f s\n", layer.c_str(), self);
      report.add_counter("self_s." + layer, self);
    }
  }
  for (std::size_t i = 0; i < num_defs; ++i) {
    std::printf("metric %-38s %.10g %s\n", defs[i].name, printed[i].second,
                defs[i].unit);
    report.add_counter(defs[i].name, printed[i].second);
  }
  report.add_counter("attempted", static_cast<double>(attempted));
  report.add_counter("failed", static_cast<double>(failed));
  try {
    report.write(args.out);
    axiomcc::ledger::append_record(
        args.out + "/ledger.jsonl",
        axiomcc::ledger::record_from_bench(
            report, args.workload == "routed"       ? "both"
                    : args.workload == "eval-packet" ? "packet"
                                                     : "fluid"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: artifacts not written: %s\n", e.what());
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < num_defs; ++i) {
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + number(printed[i].second) +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
