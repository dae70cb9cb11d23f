#include "exp/sweep.h"

#include <cmath>
#include <memory>
#include <ostream>
#include <type_traits>
#include <utility>

#include "cc/registry.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

// Rows are shuttled through the parallel map and into the caller's vector;
// they must move without throwing (and without copying MetricReport blocks).
static_assert(std::is_nothrow_move_constructible_v<SweepRow> &&
              std::is_nothrow_move_assignable_v<SweepRow>);

namespace {

/// Post-check: a cell whose evaluation silently produced NaN scores is as
/// failed as one that threw (fast-utilization is legitimately +inf for
/// super-linear protocols, so only NaN is flagged).
void flag_non_finite_scores(SweepRow& row) {
  if (!row.fault.ok()) return;
  for (std::size_t m = 0; m < core::kNumMetrics; ++m) {
    const double v = row.scores.get(static_cast<core::Metric>(m));
    if (std::isnan(v)) {
      row.fault.kind = stress::FaultKind::kNonFiniteScore;
      row.fault.detail = std::string("metric ") +
                         core::metric_name(static_cast<core::Metric>(m)) +
                         " is NaN";
      return;
    }
  }
}

/// One sweep cell, evaluated on `proto` (exclusively owned by this call).
SweepRow run_cell(const cc::Protocol& proto, const LinkShape& shape,
                  [[maybe_unused]] std::size_t grid_index,
                  const core::EvalConfig& base) {
  TELEMETRY_SPAN("exp.sweep", proto.name() + "/cell" +
                                  std::to_string(grid_index));
  TELEMETRY_COUNT("exp.sweep.cells", 1);
  core::EvalConfig cfg = base;
  cfg.link = fluid::make_link_mbps(shape.bandwidth_mbps, shape.rtt_ms,
                                   shape.buffer_mss);

  SweepRow row;
  row.protocol = proto.name();
  row.bandwidth_mbps = shape.bandwidth_mbps;
  row.rtt_ms = shape.rtt_ms;
  row.buffer_mss = shape.buffer_mss;
  // One diverging cell must not abort the sweep: capture the exception as a
  // failed marker row and keep going.
  row.fault = stress::guard_invoke(
      [&] { row.scores = core::evaluate_protocol(proto, cfg); });
  if (!row.fault.ok()) row.scores = core::MetricReport{};
  flag_non_finite_scores(row);
  if (!row.fault.ok()) TELEMETRY_COUNT("exp.sweep.failed_cells", 1);
  return row;
}

}  // namespace

LinkShape LinkGrid::shape(std::size_t index) const {
  AXIOMCC_EXPECTS(index < size());
  const std::size_t per_bandwidth = rtts_ms.size() * buffers_mss.size();
  LinkShape shape;
  shape.bandwidth_mbps = bandwidths_mbps[index / per_bandwidth];
  shape.rtt_ms = rtts_ms[(index / buffers_mss.size()) % rtts_ms.size()];
  shape.buffer_mss = buffers_mss[index % buffers_mss.size()];
  return shape;
}

std::vector<SweepRow> run_metric_sweep_prototypes(
    const std::vector<const cc::Protocol*>& prototypes, const LinkGrid& grid,
    const core::EvalConfig& base, long jobs) {
  AXIOMCC_EXPECTS(!prototypes.empty());
  AXIOMCC_EXPECTS(grid.size() > 0);
  for (const cc::Protocol* p : prototypes) AXIOMCC_EXPECTS(p != nullptr);

  // cc::Protocol instances are stateful and must not be shared across
  // threads: clone one instance per cell up front (on this thread), so each
  // task owns its protocol outright and the shared prototypes are never
  // touched concurrently.
  const std::size_t cells = prototypes.size() * grid.size();
  std::vector<std::unique_ptr<cc::Protocol>> clones;
  clones.reserve(cells);
  for (const cc::Protocol* prototype : prototypes) {
    for (std::size_t g = 0; g < grid.size(); ++g) {
      clones.push_back(prototype->clone());
    }
  }

  return parallel_map(
      cells,
      [&](std::size_t i) {
        const std::size_t g = i % grid.size();
        return run_cell(*clones[i], grid.shape(g), g, base);
      },
      jobs);
}

std::vector<SweepRow> run_metric_sweep(
    const std::vector<std::string>& protocol_specs, const LinkGrid& grid,
    const core::EvalConfig& base, long jobs) {
  AXIOMCC_EXPECTS(!protocol_specs.empty());

  // Parse everything up front so a typo fails before hours of sweeping.
  std::vector<std::unique_ptr<cc::Protocol>> owned;
  owned.reserve(protocol_specs.size());
  for (const auto& spec : protocol_specs) {
    owned.push_back(cc::make_protocol(spec));
  }
  std::vector<const cc::Protocol*> prototypes;
  prototypes.reserve(owned.size());
  for (const auto& p : owned) prototypes.push_back(p.get());
  return run_metric_sweep_prototypes(prototypes, grid, base, jobs);
}

void write_sweep_csv(const std::vector<SweepRow>& rows, std::ostream& out) {
  out << "protocol,bandwidth_mbps,rtt_ms,buffer_mss";
  for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
    out << ',' << core::metric_name(static_cast<core::Metric>(i));
  }
  out << ",status\n";

  for (const SweepRow& row : rows) {
    out << '"' << row.protocol << '"' << ',' << row.bandwidth_mbps << ','
        << row.rtt_ms << ',' << row.buffer_mss;
    for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
      out << ',' << row.scores.get(static_cast<core::Metric>(i));
    }
    out << ',' << stress::fault_kind_name(row.fault.kind) << '\n';
  }
}

}  // namespace axiomcc::exp
