// packet_sim_trace.cpp — run flows on the packet-level dumbbell and dump the
// per-monitor-interval evolution (time, window, loss, RTT) of one flow, plus
// end-of-run flow reports.
//
// Usage: packet_sim_trace [--protocol=reno[,cubic-linux,...]] [--mbps=20]
//                         [--rtt-ms=42] [--buffer=50] [--duration=20]
//                         [--watch=0] [--loss=0] [--csv] [--dump=trace.csv]
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_io.h"
#include "cc/registry.h"
#include "sim/dumbbell.h"
#include "util/cli.h"
#include "util/table.h"

using namespace axiomcc;

int main(int argc, char** argv) {
  return run_cli([&] {
    const ArgParser args(argc, argv,
                         {"protocol", "mbps", "rtt-ms", "buffer", "duration",
                          "loss", "watch", "csv", "dump"});

    sim::DumbbellConfig cfg;
    cfg.bottleneck_mbps = args.get_double("mbps", 20.0, Sign::kPositive);
    cfg.rtt_ms = args.get_double("rtt-ms", 42.0, Sign::kPositive);
    cfg.buffer_packets = static_cast<std::size_t>(
        args.get_int("buffer", 50, Sign::kNonNegative));
    cfg.duration_seconds =
        args.get_double("duration", 20.0, Sign::kPositive);
    cfg.random_loss_rate = args.get_double("loss", 0.0, Sign::kNonNegative);
    if (cfg.random_loss_rate >= 1.0) {
      throw UsageError("--loss must be below 1");
    }
    const auto specs = args.get_list("protocol", "reno,reno");
    const long watch = args.get_int("watch", 0, Sign::kNonNegative);
    if (watch >= static_cast<long>(specs.size())) {
      throw UsageError("--watch=" + std::to_string(watch) +
                       " names no flow (there are " +
                       std::to_string(specs.size()) + ")");
    }

    sim::DumbbellExperiment exp(cfg);
    for (const auto& spec : specs) {
      exp.add_flow(cc::make_protocol(spec));
    }
    exp.run();

    std::printf("=== %zu flows over %.0f Mbps / %.0f ms / %zu-pkt buffer "
                "(capacity %.1f MSS) ===\n\n",
                specs.size(), cfg.bottleneck_mbps, cfg.rtt_ms,
                cfg.buffer_packets, exp.capacity_mss());

    TextTable trace;
    trace.set_header({"t (s)", "window (MSS)", "loss", "rtt (ms)", "sent",
                      "acked"});
    for (const auto& rec : exp.sender(watch).history()) {
      if (!rec.evaluated) continue;
      trace.add_row({TextTable::num(rec.start.seconds(), 2),
                     TextTable::num(rec.window, 1),
                     TextTable::num(rec.loss_rate, 4),
                     TextTable::num(rec.rtt_seconds * 1e3, 1),
                     std::to_string(rec.sent), std::to_string(rec.acked)});
    }
    std::printf("--- flow %ld (%s) monitor intervals ---\n%s\n", watch,
                exp.sender(watch).protocol().name().c_str(),
                trace
                    .render(args.has("csv") ? TextTable::Format::kCsv
                                            : TextTable::Format::kAscii)
                    .c_str());

    TextTable reports;
    reports.set_header({"flow", "protocol", "avg window", "throughput (Mbps)",
                        "loss", "avg rtt (ms)"});
    int flow_id = 0;
    for (const auto& r : exp.flow_reports()) {
      reports.add_row({std::to_string(flow_id++), r.protocol_name,
                       TextTable::num(r.avg_window_mss, 1),
                       TextTable::num(r.throughput_mbps, 2),
                       TextTable::num(r.loss_rate, 4),
                       TextTable::num(r.avg_rtt_ms, 1)});
    }
    std::printf("--- flow reports (tail of run) ---\n%s", reports.render().c_str());
    std::printf("bottleneck utilization: %.1f%%, events processed: %zu\n",
                exp.bottleneck_utilization() * 100.0,
                exp.simulator().events_processed());

    if (const auto dump = args.get("dump")) {
      analysis::write_trace_csv_file(exp.trace(), *dump);
      std::printf("sampled window trace written to %s\n", dump->c_str());
    }
    return 0;
  });
}
