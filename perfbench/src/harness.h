// harness.h — shared machinery of the perfbench runner.
//
// Clocks, output digests, output checks, and span recording. Spans use the
// library's own telemetry::Tracer / ScopedSpan and its Chrome trace export:
// the benchmark places them around the public calls it makes, so the
// library's internal TELEMETRY_* probes stay runtime-off in every run.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/span.h"

namespace perfbench {

/// Host time in seconds (steady clock).
[[nodiscard]] double now_seconds();

/// Host CPU time of this process in seconds, all threads (the process CPU
/// clock). Unlike the steady clock it does not advance while the process
/// waits for a CPU: not while other processes run, nor, on a VM with
/// paravirtual steal accounting, while the host runs other guests.
[[nodiscard]] double cpu_seconds();

/// Host CPU time of the calling thread in seconds.
[[nodiscard]] double thread_cpu_seconds();

/// Host speed, measured with a fixed reference kernel that belongs to the
/// benchmark, so no library change moves it: an event loop with virtual
/// calls into libm, std::function callbacks and small allocations, the kind
/// of work the simulator's event kernel and cc dispatch do. On a shared
/// host the CPU time of fixed work drifts by up to 2x with what other
/// guests run; the runner times slices of the kernel between ops and
/// divides every time by the slices' slowdown.
class HostSpeed {
 public:
  /// `threads` slices run at once, one per thread, so a workload whose ops
  /// spread over that many pool threads is scaled by the speed of as many
  /// vCPUs.
  explicit HostSpeed(int threads);

  /// Runs one slice of the kernel on each thread and records the CPU time
  /// of each.
  void sample();

  /// Samples until the slices' total CPU time is at least `share` of
  /// `work_seconds`, so calibration keeps pace with the work it scales.
  void keep_up(double work_seconds, double share);

  /// Median CPU time of slices [first, last), divided by
  /// kNominalSliceSeconds: above 1 when this host runs slower than one on
  /// which a slice takes kNominalSliceSeconds.
  [[nodiscard]] double slowdown(std::size_t first, std::size_t last) const;

  /// The slowdown of the kWindowSamples samples before and after slice
  /// `at` (a slices() value taken between two pieces of work): the host's
  /// speed around that point, for scaling the work done just before it.
  [[nodiscard]] double slowdown_around(std::size_t at) const;

  [[nodiscard]] std::size_t slices() const { return seconds_.size(); }

  static constexpr std::size_t kWindowSamples = 8;

  /// The CPU time of one slice that times are scaled to: about what a slice
  /// took on a 4-vCPU Intel Xeon VM (Release build), rounded.
  static constexpr double kNominalSliceSeconds = 2.0e-3;

 private:
  int threads_;
  std::vector<double> seconds_;
  double total_ = 0.0;
};

/// Process peak resident memory in MB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over the exact bytes a run produced. Two builds whose simulated
/// statistics agree bit for bit print the same digest.
class Digest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  void add(std::span<const double> xs);
  void add(std::span<const long> xs);
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* data, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ull;
};

[[nodiscard]] std::string hex(std::uint64_t v);

/// A registry protocol spec "name(a,b,...)", each argument printed to
/// `digits` significant digits. Pass seeded draws in the braced list, which
/// evaluates them in order.
[[nodiscard]] std::string spec_of(const char* name,
                                  std::initializer_list<double> args,
                                  int digits);

/// An op whose output failed its check. Counted as a failed op.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailure(what) unless `ok`.
void check(bool ok, const std::string& what);

/// Spans and counts for the traced run. Disabled (the untraced run) it
/// records nothing and costs one branch per span.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Moves spans recorded so far out of the tracer's bounded per-thread
  /// rings into this log; call between ops so no ring overflows.
  void drain();

  /// Adds `delta` to a named work count (cells, calls, events) recorded
  /// next to the spans that timed the work.
  void count(const std::string& name, double delta);
  [[nodiscard]] double counted(const std::string& name) const;

  [[nodiscard]] const std::vector<axiomcc::telemetry::SpanEvent>& events()
      const {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::vector<axiomcc::telemetry::SpanEvent> events_;
  std::map<std::string, double> counts_;
  std::uint64_t dropped_ = 0;
};

/// RAII span on the calling thread, recorded only when spans are enabled.
/// `layer` is the span category (a string literal).
class Span {
 public:
  Span(const Spans& spans, const char* layer, std::string name) {
    if (spans.enabled()) span_.emplace(layer, std::move(name));
  }

 private:
  std::optional<axiomcc::telemetry::ScopedSpan> span_;
};

/// Per-name totals and per-layer self time of a span log.
struct SpanSummary {
  struct Totals {
    double seconds = 0.0;
    long spans = 0;
  };
  std::map<std::string, Totals> by_name;
  /// Layer (span category) self time: each span's duration minus the part
  /// covered by spans nested inside it on the same thread.
  std::map<std::string, double> layer_self_seconds;

  [[nodiscard]] double seconds(const std::string& name) const;
  [[nodiscard]] long spans(const std::string& name) const;
};

[[nodiscard]] SpanSummary summarize(
    const std::vector<axiomcc::telemetry::SpanEvent>& events);

}  // namespace perfbench
