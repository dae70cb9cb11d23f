// metric_sweep.cpp — bulk evaluation: protocols × link shapes → CSV.
//
// The data generator behind "where does each protocol sit in the metric
// space as the network varies?" — feed the CSV to any plotting tool.
//
// Usage: metric_sweep [--protocols=reno,cubic-linux,scalable]
//                     [--bandwidths=20,30,60,100] [--rtts=42]
//                     [--buffers=10,100] [--steps=3000] [--out=sweep.csv]
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "util/cli.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(
        argc, argv,
        {{"protocols", Flag::kList,
          "reno,cubic-linux,scalable,robust_aimd(1,0.8,0.01),bbr"},
         {"bandwidths", Flag::kReals, "", Bound::kPositive},
         {"rtts", Flag::kReals, "", Bound::kPositive},
         {"buffers", Flag::kReals, "", Bound::kNonNegative},
         {"steps", Flag::kInt, "3000", Bound::kPositive},
         {"out", Flag::kText}});

    const auto& specs = args.get_list("protocols");
    // A numeric list flag replaces its axis of the default grid.
    exp::LinkGrid grid;
    const auto axis = [&args](const char* flag, std::vector<double>& values) {
      if (args.has(flag)) values = args.get_doubles(flag);
    };
    axis("bandwidths", grid.bandwidths_mbps);
    axis("rtts", grid.rtts_ms);
    axis("buffers", grid.buffers_mss);

    core::EvalConfig base;
    base.steps = args.get_int("steps");

    std::fprintf(stderr, "sweeping %zu protocols over %zu link shapes...\n",
                 specs.size(), grid.size());
    const auto rows = exp::run_metric_sweep(specs, grid, base);

    if (args.has("out")) {
      const std::string& out_path = args.get_text("out");
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
      }
      exp::write_sweep_csv(rows, out);
      std::fprintf(stderr, "%zu rows written to %s\n", rows.size(),
                   out_path.c_str());
    } else {
      exp::write_sweep_csv(rows, std::cout);
    }
    return 0;
  });
}
