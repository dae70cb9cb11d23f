// quickstart.cpp — the five-minute tour of the axiomatic framework.
//
// Evaluates TCP Reno (AIMD(1,0.5)) on the paper's default setting (30 Mbps,
// 42 ms RTT, 100-MSS buffer, 2 senders) and prints its scores in all eight
// axioms, next to Table 1's theoretical predictions.
//
// Usage: quickstart [--protocol=aimd(1,0.5)] [--mbps=30] [--rtt-ms=42]
//                   [--buffer=100] [--senders=2] [--steps=4000]
#include <cstdio>

#include "cc/registry.h"
#include "core/evaluator.h"
#include "exp/table1.h"
#include "util/cli.h"
#include "util/table.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(argc, argv,
                         {"protocol", "mbps", "rtt-ms", "buffer", "senders",
                          "steps"});
    const std::string spec = args.get_or("protocol", "aimd(1,0.5)");
    const auto protocol = cc::make_protocol(spec);
    const double mbps = args.get_double("mbps", 30.0, Sign::kPositive);
    const double rtt_ms = args.get_double("rtt-ms", 42.0, Sign::kPositive);
    const double buffer = args.get_double("buffer", 100.0, Sign::kNonNegative);

    core::EvalConfig cfg;
    cfg.link = fluid::make_link_mbps(mbps, rtt_ms, buffer);
    cfg.num_senders =
        static_cast<int>(args.get_int("senders", 2, Sign::kPositive));
    cfg.steps = args.get_int("steps", 4000, Sign::kPositive);

    std::printf("Evaluating %s on a %.0f Mbps / %.0f ms RTT / %.0f MSS "
                "buffer link with %d senders...\n\n",
                protocol->name().c_str(), mbps, rtt_ms, buffer,
                cfg.num_senders);

    const core::MetricReport measured = core::evaluate_protocol(*protocol, cfg);

    TextTable table;
    table.set_header({"axiom", "score", "orientation"});
    const auto add = [&](core::Metric m) {
      table.add_row({core::metric_name(m), TextTable::num(measured.get(m), 4),
                     core::lower_is_better(m) ? "lower is better"
                                              : "higher is better"});
    };
    for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
      add(static_cast<core::Metric>(i));
    }
    std::printf("%s\n", table.render().c_str());

    std::printf(
        "Interpretation: the protocol utilizes at least %.0f%% of capacity,\n"
        "keeps loss under %.2f%%, gives every sender at least %.0f%% of any\n"
        "other's share, and tolerates up to %.2f%% non-congestion loss.\n",
        measured.efficiency * 100.0, measured.loss_avoidance * 100.0,
        measured.fairness * 100.0, measured.robustness * 100.0);
    return 0;
  });
}
