// pareto_explorer.cpp — sweep a protocol family's parameter grid, measure
// each instance's metric point, and extract the Pareto frontier (Section 5.2
// as an interactive tool). Defaults to the AIMD family; supports Robust-AIMD
// sweeps over (b, eps) too.
//
// Usage: pareto_explorer [--family=aimd|robust_aimd] [--mbps=30] [--rtt-ms=42]
//                        [--buffer=100] [--steps=3000] [--markdown]
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cc/aimd.h"
#include "cc/robust_aimd.h"
#include "core/evaluator.h"
#include "core/pareto.h"
#include "util/cli.h"
#include "util/table.h"

using namespace axiomcc;

namespace {

struct Candidate {
  std::unique_ptr<cc::Protocol> protocol;
  core::MetricReport report;
};

std::vector<Candidate> sweep_aimd(const core::EvalConfig& cfg) {
  std::vector<Candidate> out;
  for (double a : {0.5, 1.0, 2.0, 4.0}) {
    for (double b : {0.3, 0.5, 0.7, 0.9}) {
      Candidate c;
      c.protocol = std::make_unique<cc::Aimd>(a, b);
      c.report = core::evaluate_protocol(*c.protocol, cfg);
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<Candidate> sweep_robust_aimd(const core::EvalConfig& cfg) {
  std::vector<Candidate> out;
  for (double b : {0.5, 0.7, 0.8}) {
    for (double eps : {0.005, 0.01, 0.02, 0.05}) {
      Candidate c;
      c.protocol = std::make_unique<cc::RobustAimd>(1.0, b, eps);
      c.report = core::evaluate_protocol(*c.protocol, cfg);
      out.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(
        argc, argv,
        {{"family", Flag::kChoice, "aimd", Bound::kAny,
          {"aimd", "robust_aimd"}},
         {"mbps", Flag::kReal, "30", Bound::kPositive},
         {"rtt-ms", Flag::kReal, "42", Bound::kPositive},
         {"buffer", Flag::kReal, "100", Bound::kNonNegative},
         {"steps", Flag::kInt, "3000", Bound::kPositive}, {"markdown"}});
    core::EvalConfig cfg;
    cfg.link = fluid::make_link_mbps(args.get_double("mbps"),
                                     args.get_double("rtt-ms"),
                                     args.get_double("buffer"));
    cfg.steps = args.get_int("steps");

    const std::string& family = args.get_text("family");
    std::printf("=== Pareto exploration of the %s family ===\n", family.c_str());
    std::printf("(evaluating the parameter grid; ~1s)\n\n");

    const std::vector<Candidate> candidates =
        family == "aimd" ? sweep_aimd(cfg) : sweep_robust_aimd(cfg);

    std::vector<std::vector<double>> points;
    for (const auto& c : candidates) {
      const auto o = c.report.oriented();
      points.emplace_back(o.begin(), o.end());
    }
    const auto frontier = core::pareto_frontier_indices(points);
    std::vector<bool> on_frontier(candidates.size(), false);
    for (std::size_t idx : frontier) on_frontier[idx] = true;

    TextTable table;
    table.set_header({"protocol", "eff", "fast", "loss", "conv", "robust",
                      "friendly", "on frontier"});
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto& m = candidates[i].report;
      table.add_row({candidates[i].protocol->name(),
                     TextTable::num(m.efficiency, 3),
                     TextTable::num(m.fast_utilization, 2),
                     TextTable::num(m.loss_avoidance, 4),
                     TextTable::num(m.convergence, 3),
                     TextTable::num(m.robustness, 4),
                     TextTable::num(m.tcp_friendliness, 3),
                     on_frontier[i] ? "*" : ""});
    }
    std::printf("%s\n", table.render(args.has("markdown")
                                         ? TextTable::Format::kMarkdown
                                         : TextTable::Format::kAscii)
                            .c_str());
    std::printf("%zu of %zu instances are Pareto-optimal in the 8-metric "
                "space.\n",
                frontier.size(), candidates.size());
    std::printf("The frontier is where protocol DESIGN should live "
                "(paper, Section 5.2).\n");
    return 0;
  });
}
