// workloads.h — the benchmark's workloads.
//
// A workload is a seeded list of inputs ("a round"); the runner runs each
// input as one op in a closed loop with a single client, timing every op and
// counting the ops whose output check throws. Every workload drives the
// library only through public calls.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "fluid/trace.h"
#include "harness.h"

namespace perfbench {

/// Per-layer metric values a traced run reports, by metric name. Names a
/// workload does not fill stay 0: that layer is idle on the workload.
using LayerValues = std::map<std::string, double>;

/// Checks made after the timed phase (cross-checks, reference passes).
/// Each counts as one attempted op; a failed one as a failed op.
struct CheckTally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;

  /// Runs `fn`, tallying one attempt and recording any exception.
  template <typename Fn>
  void run(const std::string& what, Fn&& fn) {
    ++attempted;
    try {
      fn();
    } catch (const std::exception& e) {
      ++failed;
      errors.push_back(what + ": " + e.what());
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every op input from `seed` (protocol parameters, cohort mixes,
  /// topologies, workload seeds), replacing earlier inputs. The same seed
  /// always yields the same inputs; the library sees only what is built.
  virtual void setup(std::uint64_t seed) = 0;

  /// Distinct inputs; one round runs each once, in order.
  [[nodiscard]] virtual std::size_t inputs() const = 0;

  /// Runs one op on input `input` and checks its output, throwing on any
  /// failure. `round` lets a traced run alternate how it splits the op.
  virtual void run_op(std::size_t input, long round, Spans& spans) = 0;

  /// After the timed ops: reference passes and cross-checks.
  virtual void finish(CheckTally& tally) = 0;

  /// Simulated sender·RTT-steps of one op on `input` (valid after finish).
  [[nodiscard]] virtual double sender_steps(std::size_t input) const = 0;

  /// Traced run only: timed probes of single layers, under spans.
  virtual void probe_layers(Spans& spans) = 0;

  /// Traced run only: the per-layer metrics from the span log.
  virtual void layer_metrics(const SpanSummary& summary, const Spans& spans,
                             LayerValues& out) const = 0;

  /// Digest of every input's checked output, in input order.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;

  /// Human-readable facts about the inputs (sizes, footprints).
  [[nodiscard]] virtual std::vector<std::string> notes() const = 0;
};

/// `jobs` is the thread budget (at most nproc); `short_mode` shrinks
/// probes for the benchmark's own smoke test.
[[nodiscard]] std::unique_ptr<Workload> make_eval_workload(bool packet,
                                                           bool short_mode);
[[nodiscard]] std::unique_ptr<Workload> make_population_workload(
    long jobs, bool short_mode);
[[nodiscard]] std::unique_ptr<Workload> make_routed_workload();

/// Times Protocol::next_window on a fresh clone of `protocol`, replaying
/// sender `sender`'s observations from `trace` until at least `min_calls`
/// calls, under span "cc.scalar.<family>" with the calls counted as
/// "cc.scalar.<family>.calls". Shared by the workloads whose ops dispatch
/// protocols one sender at a time.
void probe_scalar_protocol(const std::string& family,
                           const axiomcc::cc::Protocol& protocol,
                           const axiomcc::fluid::Trace& trace, int sender,
                           Spans& spans, long min_calls);

/// Adds cc.scalar.<family>_ns_per_call for every family probed.
void scalar_protocol_metrics(const SpanSummary& summary, const Spans& spans,
                             LayerValues& out);

/// The families whose scalar next_window the benchmark reports.
[[nodiscard]] const std::vector<std::string>& scalar_families();

}  // namespace perfbench
