// mutator.h — seedable, structure-aware mutation over every scenario axis.
//
// The mutator is where the fuzzer's search moves live. Each call applies a
// small number of randomly chosen structural edits to an
// engine::ScenarioSpec whose slots name their protocols by spec — link
// and horizon perturbations, sender add/remove/retune, protocol swaps from
// a dictionary covering every registered family, loss-model switches,
// schedule edits (add/remove/perturb breakpoints, install a canonical
// outage/flap/sawtooth shape, splice two scenarios' schedules), and walks
// of the topology (parking-lot depth) and workload (incast / heavy-tailed
// on-off) axes — then clamps the result into the limits box so every mutant
// passes engine::validate_scenario and runs in bounded time on the packet
// backend. All randomness draws from the
// caller's Rng, so a fuzz round is a pure function of (corpus, seed).
//
// The dictionaries carry known-nasty values drawn from the stress gauntlet:
// outage residuals, flap scales, storm loss rates, aggressive protocol
// parameterizations — the values hand-written scenarios have already shown
// to be interesting.
#pragma once

#include <string>
#include <vector>

#include "engine/scenario.h"
#include "util/rng.h"
#include "util/units.h"

namespace axiomcc::fuzz {

/// The box every mutant is clamped into. Bounds are chosen so the packet
/// backend's event count stays small enough for thousands of execs per
/// minute (bandwidth × steps bounds the packets simulated per run).
struct MutatorLimits {
  /// Link bounds in the engine's units: bandwidth in MSS/s (0.5 to 100
  /// Mbps) and one-way propagation delay in seconds (2 to 400 ms RTT).
  double min_bandwidth_mss_per_sec = Bandwidth::from_mbps(0.5).mss_per_sec();
  double max_bandwidth_mss_per_sec =
      Bandwidth::from_mbps(100.0).mss_per_sec();
  double min_delay_s = 1e-3;
  double max_delay_s = 0.2;
  double max_buffer_mss = 500.0;
  long min_steps = 80;
  long max_steps = 480;
  std::size_t max_senders = 5;
  /// Cohort bounds: per-slot count and the population across all slots
  /// (the packet backend expands cohorts into real flows, so the total
  /// bounds its event count like max_senders used to).
  long max_cohort_count = 12;
  long max_total_senders = 24;
  std::size_t max_schedule_points = 10;
  double min_scale = 1e-3;   ///< deepest outage residual.
  double max_scale = 8.0;
  double max_initial_window_mss = 300.0;
  double max_loss_rate = 0.6;
  /// Topology axis: parking-lot bottleneck count (0 = single link); the
  /// parking lot's links are copies of the scenario's `link`.
  int max_bottlenecks = 4;
  /// Workload axis: generated flows per sender slot. The expanded
  /// population is additionally capped at max_total_senders in sanitize,
  /// so workload mutants keep the packet backend's event count bounded.
  long max_workload_flows = 4;
};

class Mutator {
 public:
  explicit Mutator(const MutatorLimits& limits = {}) : limits_(limits) {}

  [[nodiscard]] const MutatorLimits& limits() const { return limits_; }

  /// Applies 1–3 random structural edits to `base` and returns the
  /// sanitized mutant. Deterministic in (base, rng state).
  [[nodiscard]] engine::ScenarioSpec mutate(const engine::ScenarioSpec& base,
                                            Rng& rng) const;

  /// Crossover: a new scenario taking each axis (link, senders, loss,
  /// each schedule) from `a` or `b` at random, with schedules optionally
  /// spliced at a cut step. Sanitized like mutate.
  [[nodiscard]] engine::ScenarioSpec splice(const engine::ScenarioSpec& a,
                                            const engine::ScenarioSpec& b,
                                            Rng& rng) const;

  /// Clamps every field of `spec` into the limits box, sorts and dedups
  /// schedule breakpoints, truncates sender/breakpoint counts, keeps a
  /// parking lot's links equal to `link` with routes re-derived from slot
  /// order (route_parking_lot), and drops a workload whose expansion
  /// produces no senders. After sanitize, check_readable and
  /// engine::validate_scenario always succeed and the workload expands to
  /// at least one sender (protocol specs are only ever drawn from the
  /// dictionary or the input).
  void sanitize(engine::ScenarioSpec& spec) const;

  /// Hand-written starting corpus: the gauntlet's scenario shapes (outage,
  /// flap, sawtooth, loss storm, RTT step, churn, random-loss) plus a plain
  /// baseline, a parking lot, an incast and an aggregate-trace cohort.
  [[nodiscard]] static std::vector<engine::ScenarioSpec> seed_corpus();

  /// Protocol spec strings covering every registered family, including
  /// aggressive parameterizations.
  [[nodiscard]] static const std::vector<std::string>& protocol_dictionary();

  /// Known-nasty schedule scale factors (outage residuals, flap lows,
  /// surge highs).
  [[nodiscard]] static const std::vector<double>& scale_dictionary();

  /// Known-nasty injected-loss rates.
  [[nodiscard]] static const std::vector<double>& loss_rate_dictionary();

 private:
  MutatorLimits limits_;
};

}  // namespace axiomcc::fuzz
