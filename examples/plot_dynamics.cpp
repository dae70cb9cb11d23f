// plot_dynamics.cpp — watch congestion-control dynamics in the terminal:
// run protocols on the fluid link, plot the window sawtooth, and print the
// measured cycle structure next to the theory's predictions.
//
// Usage: plot_dynamics [--protocols=reno,cubic-linux] [--mbps=30]
//                      [--rtt-ms=42] [--buffer=100] [--steps=600]
//                      [--initial=1,60]
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/ascii_plot.h"
#include "analysis/dynamics.h"
#include "cc/registry.h"
#include "fluid/sim.h"
#include "util/cli.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(
        argc, argv,
        {{"protocols", Flag::kList, "reno,reno"},
         {"initial", Flag::kReals, "1,60", Bound::kNonNegative},
         {"mbps", Flag::kReal, "30", Bound::kPositive},
         {"rtt-ms", Flag::kReal, "42", Bound::kPositive},
         {"buffer", Flag::kReal, "100", Bound::kNonNegative},
         {"steps", Flag::kInt, "600", Bound::kPositive}});
    const auto& specs = args.get_list("protocols");
    const auto& initials = args.get_doubles("initial");

    fluid::SimOptions opt;
    opt.steps = args.get_int("steps");
    fluid::FluidSimulation sim(
        fluid::make_link_mbps(args.get_double("mbps"),
                              args.get_double("rtt-ms"),
                              args.get_double("buffer")),
        opt);

    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double initial = i < initials.size() ? initials[i] : 1.0;
      sim.add_sender(*cc::make_protocol(specs[i]), initial);
    }
    const fluid::Trace trace = sim.run();

    analysis::PlotOptions plot_opts;
    plot_opts.title = "congestion windows (MSS) over " +
                      std::to_string(opt.steps) + " RTT steps";
    std::printf("%s\n", analysis::plot_windows(trace, plot_opts).c_str());

    for (int i = 0; i < trace.num_senders(); ++i) {
      const auto tail = trace.windows(i).subspan(trace.num_steps() / 2);
      const analysis::CycleStats stats = analysis::analyze_cycles(tail);
      if (stats.cycles == 0) {
        std::printf("sender %d: no limit cycle detected in the tail\n", i);
        continue;
      }
      std::printf(
          "sender %d: %zu cycles | period %.1f steps | peak %.1f | "
          "trough/peak %.3f\n",
          i, stats.cycles, stats.mean_period, stats.mean_peak,
          stats.mean_decrease_ratio);
    }
    std::printf("\n(AIMD theory: trough/peak = b, period = (1-b)·peak/a "
                "steps — docs/THEORY.md)\n");
    return 0;
  });
}
