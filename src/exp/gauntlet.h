// gauntlet.h — the protocol robustness gauntlet.
//
// Runs every protocol through a library of adversarial overlays (outages,
// flaps, oscillation, loss storms, RTT steps, churn; the schedule shapes
// come from stress/perturbation.h) across several seeds, each cell under the
// guarded runner (stress/guarded_run.h), and scores how the protocol
// degrades and recovers: throughput retention relative to an unperturbed
// baseline, recovery time after an outage, fairness among the flows active
// at the end, and the residual loss rate. A scorecard aggregates the matrix per protocol
// — alongside the eight axiom metrics — in the same Markdown/CSV style as
// the Table 1 pipeline. A diverging (protocol, scenario) cell produces a
// FaultReport row instead of killing the sweep.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "core/evaluator.h"
#include "core/metric_point.h"
#include "engine/scenario.h"
#include "fluid/link.h"
#include "fluid/loss_model.h"
#include "fluid/schedule.h"
#include "stress/guarded_run.h"

namespace axiomcc::exp {

/// One named perturbation laid over a gauntlet cell's base scenario. Empty
/// members perturb nothing. `perturb_start`/`perturb_end` mark the main
/// disturbance window for scoring (recovery time is measured from
/// `perturb_end`); -1 means the perturbation spans the whole run (or there
/// is none).
struct GauntletOverlay {
  std::string name;
  fluid::Schedule bandwidth_scale;
  fluid::Schedule rtt_scale;
  fluid::LossSpec loss;  ///< seeded from the cell seed.
  /// Flows joining and leaving mid-run, on top of the base senders. The
  /// cell fills in each slot's prototype (the cell's protocol) and, in
  /// topology mode, its route (the first base slot's, the long path of the
  /// parking lot).
  std::vector<engine::SenderSlot> churn;
  long perturb_start = -1;
  long perturb_end = -1;
};

/// The standard overlay library for a run of `steps` steps: baseline, deep
/// outage, link flap, square-wave oscillation, sawtooth, loss storm, RTT
/// inflation step, and flow churn.
[[nodiscard]] std::vector<GauntletOverlay> gauntlet_library(long steps);

struct GauntletConfig {
  fluid::LinkParams link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  int num_senders = 2;     ///< base (non-churned) flows per cell.
  long steps = 900;        ///< fluid steps per cell.
  /// 0 = single shared link (the pre-topology gauntlet, bit-identical).
  /// k >= 1 runs every cell on a k-bottleneck parking lot (`link` per hop):
  /// one long flow over all hops plus num_senders−1 cross flows per link,
  /// with churned flows joining on the long route.
  int topology_bottlenecks = 0;
  /// Which simulator runs the cells (and, via axiom_cfg, the axiom metrics).
  /// The fluid default reproduces the pre-engine gauntlet bit-for-bit.
  engine::BackendKind backend = engine::BackendKind::kFluid;
  std::vector<std::uint64_t> seeds{1, 2, 3};
  double tail_fraction = 0.5;
  stress::GuardConfig guard;
  /// The scenario matrix; empty selects gauntlet_library(steps).
  std::vector<GauntletOverlay> scenarios;
  /// When true the scorecard also carries each protocol's eight axiom
  /// metrics, evaluated once on the unperturbed link with `axiom_cfg`.
  bool include_axiom_metrics = true;
  core::EvalConfig axiom_cfg;
  /// Worker threads for the (protocol × scenario × seed) matrix: <= 0
  /// resolves via resolve_jobs (AXIOMCC_JOBS env, else hardware), 1 is the
  /// serial path. Each cell's scenario seed comes from the cell tuple, so
  /// results are bit-identical at every job count.
  long jobs = 0;
  /// Flight-recorder capture per cell. When `record.enabled`, every cell
  /// runs with a recorder attached, and a faulting cell dumps a
  /// post-mortem (`postmortem-<protocol>-<scenario>-s<seed>.jsonl`) into
  /// `record_dir` (when non-empty). No-op with AXIOMCC_RECORDER=OFF.
  recorder::RecordOptions record;
  std::string record_dir;
};

/// One (protocol, scenario, seed) cell of the gauntlet matrix.
struct GauntletCell {
  std::string protocol;
  std::string scenario;
  std::uint64_t seed = 0;
  /// !fault.ok() marks a failed cell; its scores below are zeroed.
  stress::FaultReport fault;
  double utilization = 0.0;  ///< tail mean of min(1, X(t)/C), nominal C.
  /// Tail utilization relative to this protocol's unperturbed baseline run.
  double throughput_retention = 0.0;
  /// Steps after the perturbation ends until the aggregate window regains
  /// 80% of the baseline tail mean: -1 when the scenario defines no
  /// recovery point, +inf when it never recovers within the run.
  double recovery_steps = -1.0;
  /// min/max ratio of tail-mean windows over the senders still active in
  /// the tail (1 when at most one is active).
  double fairness = 0.0;
  double loss_rate = 0.0;  ///< tail mean congestion-loss rate.
};

/// Per-protocol aggregate over scenarios × seeds.
struct GauntletScore {
  std::string protocol;
  int cells = 0;
  int failed_cells = 0;
  double mean_utilization = 0.0;       ///< over clean cells.
  double mean_retention = 0.0;         ///< over clean cells.
  double worst_retention = 0.0;        ///< min over clean cells.
  double mean_recovery_steps = -1.0;   ///< over recovered outage cells.
  int unrecovered_cells = 0;           ///< outage cells that never recovered.
  double worst_fairness = 0.0;         ///< min over clean cells.
  /// Valid when GauntletConfig::include_axiom_metrics.
  core::MetricReport axioms;
  stress::FaultReport axiom_fault;
};

/// The full matrix plus its per-protocol aggregation.
struct GauntletResult {
  std::vector<GauntletCell> cells;
  std::vector<GauntletScore> scorecard;

  /// Total failed cells across the scorecard — the one aggregate every
  /// consumer (bench summary, tests) needs, so it lives here instead of
  /// being recomputed ad hoc from the cell matrix.
  [[nodiscard]] int failed_cells() const {
    int failed = 0;
    for (const GauntletScore& score : scorecard) failed += score.failed_cells;
    return failed;
  }
};

/// The scenario one gauntlet cell runs: `cfg`'s base scenario over clones
/// of `proto` (evenly spread initial windows, or the parking lot when
/// `cfg.topology_bottlenecks` > 0) with `overlay` laid on and the run seeded
/// with `seed`. The spec points at `proto`, which must outlive its runs.
[[nodiscard]] engine::ScenarioSpec gauntlet_cell_spec(
    const cc::Protocol& proto, const GauntletOverlay& overlay,
    std::uint64_t seed, const GauntletConfig& cfg);

/// Canonical spec strings covering every registered protocol family (preset
/// aliases like "reno" are covered by their canonical family entries).
[[nodiscard]] std::vector<std::string> default_gauntlet_specs();

/// Runs the gauntlet for externally-built prototypes (the hook tests use to
/// inject pathological protocols). Prototypes must outlive the call. Named
/// rather than overloaded: braced string lists would otherwise be ambiguous
/// against the pointer vector's iterator-pair constructor.
[[nodiscard]] GauntletResult run_gauntlet_prototypes(
    const std::vector<const cc::Protocol*>& prototypes,
    const GauntletConfig& cfg = {});

/// Runs the gauntlet for protocol spec strings (parsed with
/// cc::make_protocol; invalid specs throw before any work runs).
[[nodiscard]] GauntletResult run_gauntlet(
    const std::vector<std::string>& protocol_specs,
    const GauntletConfig& cfg = {});

/// One CSV row per cell, with a `status` column carrying the fault kind.
void write_gauntlet_csv(const std::vector<GauntletCell>& cells,
                        std::ostream& out);

/// One CSV row per protocol with the aggregate scores and axiom metrics.
void write_scorecard_csv(const std::vector<GauntletScore>& scores,
                         std::ostream& out);

}  // namespace axiomcc::exp
