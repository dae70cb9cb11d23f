#include "exp/crosscheck.h"

#include <ostream>
#include <vector>

#include "cc/registry.h"
#include "engine/backend.h"
#include "engine/scenario.h"
#include "engine/topology.h"
#include "exp/emulab.h"
#include "ledger/provenance.h"
#include "recorder/io.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc::exp {

std::vector<std::string> default_crosscheck_specs() {
  return {"aimd(1,0.5)",     "mimd(1.01,0.875)", "bin(1,1,1,0)",
          "bin(1,1,0.5,0.5)", "cubic(0.4,0.8)",   "robust_aimd(1,0.8,0.01)"};
}

const std::vector<core::Metric>& crosscheck_metrics() {
  static const std::vector<core::Metric> metrics{
      core::Metric::kEfficiency, core::Metric::kLossAvoidance,
      core::Metric::kFairness, core::Metric::kConvergence,
      core::Metric::kTcpFriendliness};
  return metrics;
}

CrosscheckResult run_crosscheck(const CrosscheckConfig& cfg) {
  const std::vector<std::string> specs =
      cfg.protocol_specs.empty() ? default_crosscheck_specs()
                                 : cfg.protocol_specs;
  // Parse every spec up front so a typo throws before any simulation runs;
  // the parsed instances also supply the display names.
  std::vector<std::string> names;
  names.reserve(specs.size());
  for (const std::string& spec : specs) {
    names.push_back(cc::make_protocol(spec)->name());
  }

  // Cell i = (protocol i/2, backend i%2). Each cell rebuilds its protocol
  // from the spec string — cc::Protocol instances are stateful and must not
  // be shared across worker threads — so the matrix is bit-identical at any
  // job count.
  const std::vector<core::MetricReport> reports = parallel_map(
      specs.size() * 2,
      [&](std::size_t i) {
        const std::string& spec = specs[i / 2];
        const engine::BackendKind backend = (i % 2 == 0)
                                                ? engine::BackendKind::kFluid
                                                : engine::BackendKind::kPacket;
        TELEMETRY_SPAN("exp.crosscheck",
                       std::string(engine::backend_name(backend)) + "/" + spec);
        TELEMETRY_COUNT("exp.crosscheck.cells", 1);
        const auto proto = cc::make_protocol(spec);
        core::EvalConfig ec = cfg.base;
        ec.backend = backend;
        return core::evaluate_protocol(*proto, ec);
      },
      cfg.jobs);

  CrosscheckResult result;
  result.entries.reserve(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    result.entries.push_back(
        CrosscheckEntry{names[p], reports[2 * p], reports[2 * p + 1]});
  }
  result.agreements = check_crosscheck_agreement(result.entries);
  return result;
}

std::vector<MetricAgreement> check_crosscheck_agreement(
    const std::vector<CrosscheckEntry>& entries) {
  AXIOMCC_EXPECTS(!entries.empty());
  std::vector<std::string> names;
  for (const CrosscheckEntry& e : entries) names.push_back(e.protocol);

  std::vector<MetricAgreement> agreements;
  for (core::Metric m : crosscheck_metrics()) {
    const auto index = static_cast<std::size_t>(m);
    std::vector<double> fl;
    std::vector<double> pk;
    for (const CrosscheckEntry& e : entries) {
      fl.push_back(e.fluid.oriented()[index]);
      pk.push_back(e.packet.oriented()[index]);
    }
    // The emulab grid's judge with fluid as the reference. Packet-side
    // congestion noise (queueing granularity, slow start) is larger than
    // the fluid model's, so an inversion counts only beyond a FULL tie
    // threshold, not the half the emulab grid allows its long averages.
    const HierarchyJudgement j = judge_hierarchy(m, names, fl, pk, 1.0);
    agreements.push_back(MetricAgreement{m, j.reference_order,
                                         j.candidate_order, j.pairs,
                                         j.agreeing_pairs,
                                         j.agreeing_pairs == j.pairs});
  }
  return agreements;
}

void write_crosscheck_csv(const CrosscheckResult& result, std::ostream& out) {
  out << "protocol,backend,efficiency,fast_utilization,loss_avoidance,"
         "fairness,convergence,robustness,tcp_friendliness,"
         "latency_avoidance\n";
  const auto row = [&out](const std::string& name, const char* backend,
                          const core::MetricReport& r) {
    out << name << ',' << backend;
    for (std::size_t i = 0; i < core::kNumMetrics; ++i) {
      out << ',' << r.get(static_cast<core::Metric>(i));
    }
    out << '\n';
  };
  for (const CrosscheckEntry& e : result.entries) {
    row(e.protocol, "fluid", e.fluid);
    row(e.protocol, "packet", e.packet);
  }
  out << "\nmetric,pairs,agreeing_pairs,matches,fluid_order,packet_order\n";
  for (const MetricAgreement& a : result.agreements) {
    out << core::metric_name(a.metric) << ',' << a.pairs << ','
        << a.agreeing_pairs << ',' << (a.matches ? 1 : 0) << ',' << '"'
        << a.fluid_order << '"' << ',' << '"' << a.packet_order << '"'
        << '\n';
  }
}

namespace {

/// File-name-safe protocol label: spec punctuation becomes '-'.
std::string sanitize_label(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_';
    out.push_back(keep ? c : '-');
  }
  while (!out.empty() && out.back() == '-') out.pop_back();
  return out;
}

/// Tail-mean share of flow 0's window in the aggregate.
double long_flow_tail_share(const fluid::Trace& trace, double tail_fraction) {
  const std::size_t steps = trace.num_steps();
  if (steps == 0) return 0.0;
  const auto start = static_cast<std::size_t>(
      static_cast<double>(steps) * tail_fraction);
  double long_sum = 0.0;
  double total_sum = 0.0;
  for (std::size_t s = start; s < steps; ++s) {
    long_sum += trace.windows(0)[s];
    total_sum += trace.total_window()[s];
  }
  return total_sum > 0.0 ? long_sum / total_sum : 0.0;
}

}  // namespace

TopologyCheckResult run_topology_crosscheck(const TopologyCheckConfig& cfg) {
  AXIOMCC_EXPECTS(cfg.bottlenecks >= 1);
  AXIOMCC_EXPECTS(cfg.steps > 0);
  AXIOMCC_EXPECTS(cfg.tail_fraction >= 0.0 && cfg.tail_fraction < 1.0);
  const std::vector<std::string> specs =
      cfg.protocol_specs.empty()
          ? std::vector<std::string>{"aimd(1,0.5)", "cubic(0.4,0.8)"}
          : cfg.protocol_specs;
  std::vector<std::string> names;
  names.reserve(specs.size());
  for (const std::string& spec : specs) {
    names.push_back(cc::make_protocol(spec)->name());
  }

  // Cell i = (protocol i/2, backend i%2), as in run_crosscheck: each cell
  // rebuilds its protocol, so results are bit-identical at any job count.
  struct Cell {
    double share = 0.0;
    scope::ScopeSeries scope;
  };
  const std::vector<Cell> cells = parallel_map(
      specs.size() * 2,
      [&](std::size_t i) {
        const std::string& spec = specs[i / 2];
        const engine::BackendKind backend = (i % 2 == 0)
                                                ? engine::BackendKind::kFluid
                                                : engine::BackendKind::kPacket;
        TELEMETRY_SPAN("exp.crosscheck.topology",
                       std::string(engine::backend_name(backend)) + "/" + spec);
        TELEMETRY_COUNT("exp.crosscheck.topology_cells", 1);
        const auto proto = cc::make_protocol(spec);
        engine::ScenarioSpec scenario;
        scenario.steps = cfg.steps;
        scenario.seed = cfg.seed;
        scenario.tail_fraction = cfg.tail_fraction;
        engine::apply_parking_lot(scenario, cfg.per_link, cfg.bottlenecks,
                                  *proto);
        scenario.record = cfg.record;
        const auto rec = engine::make_recorder(scenario);
        scenario.record_sink = rec.get();
        scenario.scope = cfg.scope;
        const auto sc = engine::make_scope(scenario);
        scenario.scope_sink = sc.get();
        const engine::RunTrace rt =
            engine::backend_for(backend).run(scenario);
        if (rec != nullptr && !cfg.record_dir.empty()) {
          recorder::Recording snap = rec->snapshot();
          snap.git_sha = ledger::current_provenance().git_sha;
          recorder::write_text_file(
              cfg.record_dir + "/crosscheck-" + sanitize_label(names[i / 2]) +
                  "-" + engine::backend_name(backend) + ".jsonl",
              recorder::recording_to_jsonl(snap));
        }
        Cell cell;
        cell.share = long_flow_tail_share(rt.trace, cfg.tail_fraction);
        if (sc != nullptr) cell.scope = sc->series();
        return cell;
      },
      cfg.jobs);

  TopologyCheckResult result;
  result.entries.reserve(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p) {
    TopologyCheckEntry e;
    e.protocol = names[p];
    e.bottlenecks = cfg.bottlenecks;
    e.fluid_long_share = cells[2 * p].share;
    e.packet_long_share = cells[2 * p + 1].share;
    e.fluid_scope = cells[2 * p].scope;
    e.packet_scope = cells[2 * p + 1].scope;
    // One long flow competes with one cross flow per link: fair is an even
    // split of each bottleneck.
    e.fair_share = 0.5;
    e.beat_down_agrees = (e.fluid_long_share < e.fair_share) ==
                         (e.packet_long_share < e.fair_share);
    result.entries.push_back(std::move(e));
  }
  return result;
}

void write_topology_crosscheck_csv(const TopologyCheckResult& result,
                                   std::ostream& out) {
  out << "protocol,bottlenecks,fluid_long_share,packet_long_share,"
         "fair_share,beat_down_agrees\n";
  for (const TopologyCheckEntry& e : result.entries) {
    out << e.protocol << ',' << e.bottlenecks << ',' << e.fluid_long_share
        << ',' << e.packet_long_share << ',' << e.fair_share << ','
        << (e.beat_down_agrees ? 1 : 0) << '\n';
  }
}

}  // namespace axiomcc::exp
