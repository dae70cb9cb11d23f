// parking_lot.cpp — network-wide protocol interaction (the paper's Section 6
// future work): the classic parking-lot topology on both substrates.
//
// One long flow crosses k identical bottlenecks; each bottleneck also
// carries one short cross-flow. Prints the long flow's share of a short
// flow's for k = 1..max, for a chosen protocol, on the fluid network and on
// the packet-level multi-hop simulator.
//
// Usage: parking_lot [--protocol=robust_aimd(1,0.5,0.01)] [--max-hops=4]
//                    [--mbps=20] [--steps=3000] [--duration=20]
#include <cstdio>

#include "cc/registry.h"
#include "fluid/network.h"
#include "sim/network.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(
        argc, argv,
        {{"protocol", Flag::kText, "robust_aimd(1,0.5,0.01)"},
         {"max-hops", Flag::kInt, "4", Bound::kPositive},
         {"mbps", Flag::kReal, "20", Bound::kPositive},
         {"steps", Flag::kInt, "3000", Bound::kPositive},
         {"duration", Flag::kReal, "20", Bound::kPositive}});
    const int max_hops = static_cast<int>(args.get_int("max-hops"));
    const double mbps = args.get_double("mbps");
    const long steps = args.get_int("steps");
    const double duration = args.get_double("duration");
    const auto prototype = cc::make_protocol(args.get_text("protocol"));

    std::printf("=== parking lot: %s over 1..%d bottlenecks ===\n\n",
                prototype->name().c_str(), max_hops);

    TextTable table;
    table.set_header({"bottlenecks", "fluid long/short ratio",
                      "packet long/short ratio"});
    for (int k = 1; k <= max_hops; ++k) {
      // Fluid network.
      fluid::NetworkOptions opt;
      opt.steps = steps;
      fluid::ParkingLot fluid_lot = fluid::make_parking_lot(
          fluid::make_link_mbps(mbps, 40.0, 20.0), k, *prototype, opt);
      const fluid::Trace trace = fluid_lot.network.run();
      double fluid_short = 0.0;
      for (int f : fluid_lot.short_flows) {
        fluid_short += mean_of(tail_view(trace.windows(f), 0.5));
      }
      fluid_short /= static_cast<double>(fluid_lot.short_flows.size());
      const double fluid_ratio =
          mean_of(tail_view(trace.windows(fluid_lot.long_flow), 0.5)) /
          fluid_short;

      // Packet-level network.
      sim::MultiHopNetwork::Config cfg;
      cfg.duration_seconds = duration;
      sim::PacketParkingLot packet_lot = sim::make_packet_parking_lot(
          mbps, 10.0, 25, k, *prototype, cfg);
      packet_lot.network->run();
      double packet_short = 0.0;
      for (int f : packet_lot.short_flows) {
        packet_short += packet_lot.network->flow_throughput_mbps(f);
      }
      packet_short /= static_cast<double>(packet_lot.short_flows.size());
      const double packet_ratio =
          packet_lot.network->flow_throughput_mbps(packet_lot.long_flow) /
          packet_short;

      table.add_row({std::to_string(k), TextTable::num(fluid_ratio, 3),
                     TextTable::num(packet_ratio, 3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf(
        "Crossing more bottlenecks exposes a flow to composed loss; how hard\n"
        "that bites depends on the protocol's loss response (try "
        "--protocol=reno\nvs --protocol=\"robust_aimd(1,0.5,0.01)\" on the "
        "fluid side).\n");
    return 0;
  });
}
