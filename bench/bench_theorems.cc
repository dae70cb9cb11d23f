// bench_theorems — empirical verification of Claim 1 and Theorems 1-5
// (paper Section 4), printed as measured-vs-bound rows.
//
// Usage: bench_theorems [--steps=3000] [--backend=fluid|packet] [--jobs=N]
//                       [--telemetry] [--out=dir]
//
// --jobs=N fans each theorem's independent simulation cells out over N
// workers (default: AXIOMCC_JOBS env, else hardware concurrency; 1 =
// serial). Per-theorem timing lands in the run's ledger record
// (bench/harness.h).
// --backend selects the measuring simulator (default fluid). The bounds are
// fluid-model derivations — expect slack, and some failures, when measuring
// on the packet backend.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "engine/scenario.h"
#include "exp/theorems.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

int print_checks(const char* title, const std::vector<exp::TheoremCheck>& checks) {
  std::printf("--- %s ---\n", title);
  TextTable table;
  table.set_header({"check", "measured", "bound", "holds"});
  int failures = 0;
  for (const auto& c : checks) {
    table.add_row({c.description, TextTable::num(c.measured, 4),
                   TextTable::num(c.bound, 4), c.holds ? "yes" : "NO"});
    if (!c.holds) ++failures;
  }
  std::printf("%s\n", table.render().c_str());
  return failures;
}

int run_bench(bench::Harness& h) {
  const ArgParser& args = h.args();
  core::EvalConfig cfg;
  cfg.steps = args.get_int("steps");
  cfg.backend = h.backend();
  const long jobs = h.jobs();
  if (cfg.backend != engine::BackendKind::kFluid) {
    std::printf("Backend: %s (bounds are fluid-model derivations)\n",
                engine::backend_name(cfg.backend));
  }

  std::printf("=== Section 4: axiomatic derivations, checked empirically "
              "(%ld jobs) ===\n\n",
              jobs);
  int failures = 0;
  std::size_t cells = 0;
  BenchReport& bench = h.report();
  WallTimer timer;

  {
    const auto r = exp::check_claim1(cfg, jobs);
    bench.add_phase("claim1", timer.seconds());
    cells += 3;
    std::printf("--- Claim 1: 0-loss loss-based protocols are not "
                "fast-utilizing ---\n");
    std::printf("CautiousProbe tail loss:            %.6f (must be 0)\n",
                r.tail_loss);
    std::printf("CautiousProbe growth coefficient:   %.6f (horizon H)\n",
                r.fast_utilization);
    std::printf("CautiousProbe growth coefficient:   %.6f (horizon 2H — "
                "must not grow)\n",
                r.fast_utilization_half);
    std::printf("holds: %s\n\n", r.holds ? "yes" : "NO");
    if (!r.holds) ++failures;
  }

  const struct {
    const char* title;
    const char* phase;
    std::vector<exp::TheoremCheck> (*check)(const core::EvalConfig&, long);
  } theorems[] = {
      {"Theorem 1: efficiency >= conv/(2-conv) (AIMD grid)", "theorem1",
       exp::check_theorem1},
      {"Theorem 2: TCP-friendliness <= 3(1-b)/(a(1+b)) (tight for AIMD)",
       "theorem2", exp::check_theorem2},
      {"Theorem 3: robustness tightens the friendliness bound", "theorem3",
       exp::check_theorem3},
      {"Theorem 4: friendliness transfers to more-aggressive protocols",
       "theorem4", exp::check_theorem4},
      {"Theorem 5: loss-based protocols starve latency-avoiders",
       "theorem5", exp::check_theorem5},
  };
  for (const auto& t : theorems) {
    timer.reset();
    const auto checks = t.check(cfg, jobs);
    bench.add_phase(t.phase, timer.seconds());
    cells += checks.size();
    failures += print_checks(t.title, checks);
  }

  std::printf("=== %d failing check(s) ===\n", failures);

  bench.add_counter("cells", static_cast<double>(cells));
  bench.add_counter("cells_per_sec",
                    static_cast<double>(cells) / bench.total_seconds());
  h.finish(engine::backend_name(cfg.backend));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run(argc, argv, "theorems",
                    {{"steps", Flag::kInt, "3000", Bound::kPositive},
                     bench::backend_flag(), Flag::jobs()},
                    run_bench);
}
