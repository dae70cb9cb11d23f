// feasibility_check.cpp — ask the axiomatic framework for a protocol with
// given metric guarantees; get back a concrete protocol or a theorem.
//
// Examples:
//   feasibility_check --min-efficiency=0.9 --min-friendliness=0.5
//   feasibility_check --min-robustness=0.01 --min-friendliness=0.04
//   feasibility_check --min-fast=2 --min-efficiency=0.9 --min-friendliness=1
//     (provably infeasible by Theorem 2)
//
// Flags (all optional): --min-efficiency --min-fast --max-loss
// --min-fairness --min-convergence --min-robustness --min-friendliness
// --max-latency, plus --mbps/--rtt-ms/--buffer/--steps for the scenario.
#include <cstdio>

#include "core/feasibility.h"
#include "util/cli.h"
#include "util/table.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(
        argc, argv,
        {{"min-efficiency", Flag::kReal, ""}, {"min-fast", Flag::kReal, ""},
         {"max-loss", Flag::kReal, ""}, {"min-fairness", Flag::kReal, ""},
         {"min-convergence", Flag::kReal, ""},
         {"min-robustness", Flag::kReal, ""},
         {"min-friendliness", Flag::kReal, ""},
         {"max-latency", Flag::kReal, ""},
         {"mbps", Flag::kReal, "30", Bound::kPositive},
         {"rtt-ms", Flag::kReal, "42", Bound::kPositive},
         {"buffer", Flag::kReal, "100", Bound::kNonNegative},
         {"steps", Flag::kInt, "3000", Bound::kPositive}});

    core::FeasibilityQuery query;
    const auto bind = [&](const char* flag, std::optional<double>& field) {
      if (args.has(flag)) field = args.get_double(flag);
    };
    bind("min-efficiency", query.min_efficiency);
    bind("min-fast", query.min_fast_utilization);
    bind("max-loss", query.max_loss);
    bind("min-fairness", query.min_fairness);
    bind("min-convergence", query.min_convergence);
    bind("min-robustness", query.min_robustness);
    bind("min-friendliness", query.min_tcp_friendliness);
    bind("max-latency", query.max_latency);

    core::EvalConfig cfg;
    cfg.link = fluid::make_link_mbps(args.get_double("mbps"),
                                     args.get_double("rtt-ms"),
                                     args.get_double("buffer"));
    cfg.steps = args.get_int("steps");

    std::printf("query: %s\n", query.describe().c_str());
    std::printf("searching %zu candidate protocol instances...\n\n",
                core::feasibility_candidates().size());

    const core::FeasibilityResult result = core::resolve(query, cfg);
    switch (result.status) {
      case core::Feasibility::kProvablyInfeasible:
        std::printf("PROVABLY INFEASIBLE.\n%s\n", result.certificate.c_str());
        return 0;
      case core::Feasibility::kNoWitnessFound:
        std::printf("no witness found among %d candidates (not provably "
                    "impossible — the feasibility region's boundary may lie "
                    "between grid points).\n",
                    result.candidates_evaluated);
        return 0;
      case core::Feasibility::kFeasible:
        break;
    }

    std::printf("FEASIBLE — witness: %s (after %d evaluations)\n\n",
                result.witness_spec.c_str(), result.candidates_evaluated);
    TextTable table;
    table.set_header({"axiom", "witness score"});
    for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
      const auto m = static_cast<core::Metric>(i);
      table.add_row({core::metric_name(m),
                     TextTable::num(result.witness_scores.get(m), 4)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  });
}
