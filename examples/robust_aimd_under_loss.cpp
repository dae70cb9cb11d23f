// robust_aimd_under_loss.cpp — the paper's Metric VI motivation as a demo:
// a sender on a clean-but-lossy path (e.g. wireless corruption) under TCP
// Reno vs Robust-AIMD vs PCC. Runs both the fluid model and the packet-level
// simulator so the substrates can be compared side by side.
//
// Usage: robust_aimd_under_loss [--loss=0.008] [--mbps=20] [--rtt-ms=42]
//                               [--duration=30] [--steps=2000]
#include <cstdio>
#include <memory>
#include <vector>

#include "cc/presets.h"
#include "fluid/loss_model.h"
#include "fluid/sim.h"
#include "sim/dumbbell.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(argc, argv,
                         {"loss", "mbps", "rtt-ms", "steps", "duration"});
    const double loss = args.get_double("loss", 0.008, Sign::kNonNegative);
    if (loss >= 1.0) throw UsageError("--loss must be below 1");
    const double mbps = args.get_double("mbps", 20.0, Sign::kPositive);
    const double rtt_ms = args.get_double("rtt-ms", 42.0, Sign::kPositive);
    const long steps = args.get_int("steps", 2000, Sign::kPositive);
    const double duration =
        args.get_double("duration", 30.0, Sign::kPositive);

    std::printf("=== non-congestion loss demo: %.2f%% random loss on a "
                "%.0f Mbps path ===\n\n",
                loss * 100.0, mbps);

    const auto contenders = [] {
      std::vector<std::unique_ptr<cc::Protocol>> out;
      out.push_back(cc::presets::reno());
      out.push_back(cc::presets::robust_aimd_table2());
      out.push_back(cc::presets::pcc());
      return out;
    }();

    // --- fluid model: lone sender, effectively infinite capacity ---
    std::printf("--- fluid model (lone sender, infinite capacity, constant "
                "loss rate) ---\n");
    TextTable fluid_table;
    fluid_table.set_header({"protocol", "final window (MSS)",
                            "tail-average window"});
    for (const auto& proto : contenders) {
      fluid::LinkParams link = fluid::make_link_mbps(mbps, rtt_ms, 100.0);
      link.bandwidth = Bandwidth::from_mss_per_sec(1e15);
      link.buffer_mss = 1e15;
      fluid::SimOptions opt;
      opt.steps = steps;
      fluid::FluidSimulation sim(link, opt);
      sim.add_sender(*proto, 2.0);
      sim.set_loss_injector(std::make_unique<fluid::ConstantLoss>(loss));
      const fluid::Trace trace = sim.run();
      fluid_table.add_row(
          {proto->name(), TextTable::num(trace.windows(0).back(), 1),
           TextTable::num(mean_of(tail_view(trace.windows(0), 0.5)), 1)});
    }
    std::printf("%s\n", fluid_table.render().c_str());

    // --- packet-level: dumbbell with a Bernoulli loss channel ---
    std::printf("--- packet-level simulator (dumbbell + Bernoulli loss "
                "channel) ---\n");
    TextTable packet_table;
    packet_table.set_header(
        {"protocol", "throughput (Mbps)", "link utilization"});
    for (const auto& proto : contenders) {
      sim::DumbbellConfig cfg;
      cfg.bottleneck_mbps = mbps;
      cfg.rtt_ms = rtt_ms;
      cfg.buffer_packets = 100;
      cfg.duration_seconds = duration;
      cfg.random_loss_rate = loss;
      sim::DumbbellExperiment exp(cfg);
      exp.add_flow(proto->clone());
      exp.run();
      packet_table.add_row(
          {proto->name(),
           TextTable::num(exp.flow_reports()[0].throughput_mbps, 2),
           TextTable::num(exp.bottleneck_utilization(), 3)});
    }
    std::printf("%s\n", packet_table.render().c_str());

    std::printf(
        "Reading: Reno treats every loss as congestion and collapses; \n"
        "Robust-AIMD tolerates loss below its eps=1%% threshold and PCC "
        "below its\n~5%% utility knee, so both keep the pipe full (paper "
        "Sections 3 and 5.2).\n");
    return 0;
  });
}
