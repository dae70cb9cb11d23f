// protocol_shootout.cpp — evaluate an arbitrary list of protocols on the same
// link and print the 8-metric comparison, plus who survives the Pareto
// filter. This is the paper's core workflow: place protocols as points in the
// metric space and look at the frontier.
//
// Usage: protocol_shootout [--protocols=reno,cubic-linux,scalable,...]
//                          [--mbps=30] [--rtt-ms=42] [--buffer=100]
//                          [--senders=2] [--steps=4000] [--markdown]
#include <cstdio>
#include <string>
#include <vector>

#include "cc/registry.h"
#include "core/evaluator.h"
#include "core/pareto.h"
#include "util/cli.h"
#include "util/table.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(
        argc, argv,
        {{"protocols", Flag::kList,
          "reno,cubic-linux,scalable,bin(1,1,1,0),robust_aimd(1,0.8,0.01),pcc,"
          "vegas(2,4)"},
         {"mbps", Flag::kReal, "30", Bound::kPositive},
         {"rtt-ms", Flag::kReal, "42", Bound::kPositive},
         {"buffer", Flag::kReal, "100", Bound::kNonNegative},
         {"senders", Flag::kInt, "2", Bound::kPositive},
         {"steps", Flag::kInt, "4000", Bound::kPositive}, {"markdown"}});
    const auto& specs = args.get_list("protocols");
    const double mbps = args.get_double("mbps");
    const double rtt_ms = args.get_double("rtt-ms");
    const double buffer = args.get_double("buffer");

    core::EvalConfig cfg;
    cfg.link = fluid::make_link_mbps(mbps, rtt_ms, buffer);
    cfg.num_senders = static_cast<int>(args.get_int("senders"));
    cfg.steps = args.get_int("steps");

    std::printf("=== protocol shootout: %zu protocols, %.0f Mbps / %.0f ms / "
                "%.0f MSS ===\n\n",
                specs.size(), mbps, rtt_ms, buffer);

    std::vector<std::string> names;
    std::vector<core::MetricReport> reports;
    for (const auto& spec : specs) {
      const auto protocol = cc::make_protocol(spec);
      names.push_back(protocol->name());
      std::printf("evaluating %-28s ...\n", protocol->name().c_str());
      reports.push_back(core::evaluate_protocol(*protocol, cfg));
    }

    TextTable table;
    table.set_header({"protocol", "eff", "fast", "loss", "fair", "conv",
                      "robust", "friendly", "latency"});
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto& m = reports[i];
      table.add_row({names[i], TextTable::num(m.efficiency, 3),
                     TextTable::num(m.fast_utilization, 2),
                     TextTable::num(m.loss_avoidance, 4),
                     TextTable::num(m.fairness, 3),
                     TextTable::num(m.convergence, 3),
                     TextTable::num(m.robustness, 4),
                     TextTable::num(m.tcp_friendliness, 3),
                     TextTable::num(m.latency_avoidance, 3)});
    }
    std::printf("\n%s\n", table.render(args.has("markdown")
                                           ? TextTable::Format::kMarkdown
                                           : TextTable::Format::kAscii)
                              .c_str());

    // Pareto filter over the oriented 8-D points.
    std::vector<std::vector<double>> points;
    for (const auto& r : reports) {
      const auto o = r.oriented();
      points.emplace_back(o.begin(), o.end());
    }
    const auto frontier = core::pareto_frontier_indices(points);
    std::printf("Pareto frontier (8-D, higher-better orientation):\n");
    for (std::size_t idx : frontier) {
      std::printf("  * %s\n", names[idx].c_str());
    }
    std::printf("dominated: %zu of %zu\n", names.size() - frontier.size(),
                names.size());
    return 0;
  });
}
