// crosscheck.h — fluid vs packet cross-validation of the Table 1 protocols.
//
// The tentpole claim of the backend layer is that both simulators describe
// the same physical situation. This experiment puts that to the test: every
// protocol is evaluated twice through core::evaluate_protocol — once per
// backend — and the resulting metric hierarchies ("AIMD loses less than
// MIMD", ...) are compared pairwise per metric. Exact scores are NOT
// expected to match (the packet model has queueing granularity, slow start,
// and sampling noise the fluid model abstracts away); the paper's ordinal
// claims are what must survive the substrate change.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/metric_point.h"
#include "fluid/link.h"
#include "recorder/recorder.h"
#include "scope/scope.h"

namespace axiomcc::exp {

struct CrosscheckConfig {
  /// Shared evaluation parameters. `base.backend` is ignored — the run
  /// overrides it per cell. The packet side is additionally clamped by
  /// `base.packet` (see core::EvalConfig::PacketLimits).
  core::EvalConfig base;
  /// Protocol spec strings (cc::make_protocol grammar). Empty selects
  /// default_crosscheck_specs() — the Table 1 rows.
  std::vector<std::string> protocol_specs;
  /// Worker threads for the protocol × backend matrix: <= 0 resolves via
  /// resolve_jobs, 1 is serial. Each cell builds its own protocol, so
  /// results are bit-identical at any job count.
  long jobs = 0;
};

/// One protocol's two evaluations.
struct CrosscheckEntry {
  std::string protocol;
  core::MetricReport fluid;
  core::MetricReport packet;
};

/// Pairwise hierarchy agreement for one metric. A pair (i, j) counts when
/// the fluid side separates the protocols beyond a tie threshold; it agrees
/// when the packet side does not invert that ordering beyond slack.
struct MetricAgreement {
  core::Metric metric = core::Metric::kEfficiency;
  std::string fluid_order;   ///< worst-to-best, fluid scores.
  std::string packet_order;  ///< worst-to-best, packet scores.
  int pairs = 0;
  int agreeing_pairs = 0;
  bool matches = false;  ///< agreeing_pairs == pairs.
};

struct CrosscheckResult {
  std::vector<CrosscheckEntry> entries;
  std::vector<MetricAgreement> agreements;

  [[nodiscard]] int agreeing_metrics() const {
    int n = 0;
    for (const MetricAgreement& a : agreements) n += a.matches ? 1 : 0;
    return n;
  }
};

/// The Table 1 rows as spec strings: AIMD(1,0.5), MIMD(1.01,0.875), IIAD,
/// SQRT, CUBIC(0.4,0.8), Robust-AIMD(1,0.8,0.01).
[[nodiscard]] std::vector<std::string> default_crosscheck_specs();

/// The metrics whose hierarchies are compared: efficiency, loss avoidance,
/// fairness, convergence, and TCP friendliness. (Fast utilization,
/// robustness, and latency avoidance are measured on both backends too —
/// see the CSV — but their packet-side probes run under PacketLimits
/// clamps, so their absolute scales are not comparable across substrates.)
[[nodiscard]] const std::vector<core::Metric>& crosscheck_metrics();

/// Evaluates every spec on both backends and scores per-metric agreement.
/// Invalid specs throw before any simulation runs.
[[nodiscard]] CrosscheckResult run_crosscheck(const CrosscheckConfig& cfg = {});

/// Recomputes the agreement table from finished entries (exposed so tests
/// can score hand-built entries without re-running simulations).
[[nodiscard]] std::vector<MetricAgreement> check_crosscheck_agreement(
    const std::vector<CrosscheckEntry>& entries);

/// One CSV row per (protocol, backend) with all eight metric scores,
/// followed by one row per metric with the agreement verdicts.
void write_crosscheck_csv(const CrosscheckResult& result, std::ostream& out);

/// Topology crosscheck: runs the same k-bottleneck parking-lot ScenarioSpec
/// on both backends through engine::SimBackend and compares the structural
/// outcome. Exact traces differ across substrates; what must survive is the
/// multi-hop beat-down — the long flow (crossing every bottleneck) ends up
/// on the same side of its single-link fair share on both backends.
struct TopologyCheckConfig {
  /// Per-bottleneck link (fluid units; Θ one-way). The defaults give the
  /// paper's 30 Mbps / 42 ms dumbbell at every hop.
  fluid::LinkParams per_link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  int bottlenecks = 3;
  long steps = 400;
  std::uint64_t seed = 42;
  /// Tail fraction of steps used for the share estimate.
  double tail_fraction = 0.5;
  /// Protocol spec strings; empty selects {aimd(1,0.5), cubic(0.4,0.8)}.
  std::vector<std::string> protocol_specs;
  /// Worker threads for the protocol × backend matrix (as in
  /// CrosscheckConfig::jobs).
  long jobs = 0;
  /// Flight-recorder capture for every cell (lane filtering via
  /// `record.classes`). When `record.enabled` and `record_dir` is non-empty
  /// each cell writes `crosscheck-<protocol>-<backend>.jsonl` into the
  /// directory, provenance-stamped with the current git SHA.
  recorder::RecordOptions record;
  std::string record_dir;
  /// Streaming-scope capture: when `scope.enabled` every cell runs with a
  /// MetricScope attached and the entry carries both backends' series
  /// (window size per `scope.window_steps`; 0 = one full-horizon window).
  /// When recording too, closed windows also land in the recording as
  /// kMetric events.
  scope::ScopeConfig scope;
};

struct TopologyCheckEntry {
  std::string protocol;
  int bottlenecks = 0;
  /// Long flow's tail-mean share of the aggregate window, per backend.
  double fluid_long_share = 0.0;
  double packet_long_share = 0.0;
  /// The single-link fair share the long flow would get without multi-hop
  /// beat-down (1 / flows-per-link).
  double fair_share = 0.0;
  /// Both backends put the long flow's share on the same side of fair.
  bool beat_down_agrees = false;
  /// Streaming-scope series per backend (empty unless cfg.scope.enabled).
  scope::ScopeSeries fluid_scope;
  scope::ScopeSeries packet_scope;
};

struct TopologyCheckResult {
  std::vector<TopologyCheckEntry> entries;

  [[nodiscard]] int agreeing_entries() const {
    int n = 0;
    for (const TopologyCheckEntry& e : entries) n += e.beat_down_agrees;
    return n;
  }
};

[[nodiscard]] TopologyCheckResult run_topology_crosscheck(
    const TopologyCheckConfig& cfg = {});

/// One CSV row per protocol with both backends' long-flow shares and the
/// agreement verdict.
void write_topology_crosscheck_csv(const TopologyCheckResult& result,
                                   std::ostream& out);

}  // namespace axiomcc::exp
