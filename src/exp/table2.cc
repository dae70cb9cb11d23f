#include "exp/table2.h"

#include <utility>

#include "cc/presets.h"
#include "exp/emulab.h"
#include "fluid/link.h"
#include "telemetry/telemetry.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

namespace {

core::EvalConfig cell_config(const Table2Config& cfg, int n, double bw_mbps) {
  core::EvalConfig ec;
  ec.link = fluid::make_link_mbps(bw_mbps, cfg.rtt_ms, cfg.buffer_mss);
  ec.steps = cfg.steps;
  ec.tail_fraction = cfg.tail_fraction;
  ec.num_protocol_senders = n - 1;  // (n−1) protocol senders + 1 Reno
  ec.num_reno_senders = 1;
  return ec;
}

/// The (n, BW) grid in row order: sender counts outermost. Cell i maps back
/// to its coordinates so every task is a pure function of its index.
std::pair<int, double> grid_cell(const Table2Config& cfg, std::size_t i) {
  const std::size_t per_n = cfg.bandwidths_mbps.size();
  return {cfg.sender_counts[i / per_n], cfg.bandwidths_mbps[i % per_n]};
}

}  // namespace

std::vector<Table2Cell> build_table2(const Table2Config& cfg) {
  return parallel_map(
      cfg.sender_counts.size() * cfg.bandwidths_mbps.size(),
      [&](std::size_t i) {
        const auto [n, bw] = grid_cell(cfg, i);
        TELEMETRY_SPAN("exp.table2", "fluid/n" + std::to_string(n) +
                                         "/bw" + std::to_string(bw));
        TELEMETRY_COUNT("exp.table2.cells", 1);
        // Presets are built inside the task: cc::Protocol instances are
        // stateful and must not be shared across threads.
        const auto robust = cc::presets::robust_aimd_table2();
        const auto pcc = cc::presets::pcc();
        const core::EvalConfig ec = cell_config(cfg, n, bw);
        Table2Cell cell;
        cell.n = n;
        cell.bandwidth_mbps = bw;
        cell.robust_aimd_friendliness =
            core::measure_tcp_friendliness_score(*robust, ec);
        cell.pcc_friendliness = core::measure_tcp_friendliness_score(*pcc, ec);
        return cell;
      },
      cfg.jobs);
}

std::vector<Table2Cell> build_table2_packet(const Table2Config& cfg,
                                            double duration_seconds) {
  return parallel_map(
      cfg.sender_counts.size() * cfg.bandwidths_mbps.size(),
      [&](std::size_t i) {
        const auto [n, bw] = grid_cell(cfg, i);
        TELEMETRY_SPAN("exp.table2", "packet/n" + std::to_string(n) +
                                         "/bw" + std::to_string(bw));
        TELEMETRY_COUNT("exp.table2.cells", 1);
        const auto robust = cc::presets::robust_aimd_table2();
        const auto pcc = cc::presets::pcc();
        Table2Cell cell;
        cell.n = n;
        cell.bandwidth_mbps = bw;
        cell.robust_aimd_friendliness = packet_reno_friendliness(
            *robust, n, bw, cfg.rtt_ms, cfg.buffer_mss, duration_seconds,
            cfg.tail_fraction);
        cell.pcc_friendliness = packet_reno_friendliness(
            *pcc, n, bw, cfg.rtt_ms, cfg.buffer_mss, duration_seconds,
            cfg.tail_fraction);
        return cell;
      },
      cfg.jobs);
}

}  // namespace axiomcc::exp
