#ifndef AXIOMCC_RECORDER_EVENT_H_
#define AXIOMCC_RECORDER_EVENT_H_

#include <cstdint>

namespace axiomcc::recorder {

/// Coarse event families. Each class can be enabled independently through
/// `RecordOptions::classes` (a bitmask of `class_bit` values), so a caller
/// chasing churn behaviour need not pay for per-step window samples.
enum class EventClass : unsigned char {
  kWindow = 0,   ///< sampled congestion windows (per sender/cohort + total)
  kLoss,         ///< loss-rate transitions (congestion + injected)
  kSchedule,     ///< bandwidth / RTT schedule breakpoints
  kChurn,        ///< sender-cohort arrivals and departures
  kCohort,       ///< fluid cohort execution decisions (kernel/fallback/uniform)
  kGuard,        ///< guarded-runner invariant checks and trips
  kMetric,       ///< streaming axiom-scope windows (one value per axis)
};

inline constexpr int kNumEventClasses = 7;

[[nodiscard]] constexpr unsigned class_bit(EventClass cls) {
  return 1u << static_cast<unsigned>(cls);
}

inline constexpr unsigned kAllClasses = (1u << kNumEventClasses) - 1;

/// What happened within the class. Codes are class-scoped but share one
/// enum so an `Event` stays a flat POD.
enum class EventCode : unsigned char {
  // kWindow
  kSample = 0,  ///< one sender's / cohort representative's window (a = mss)
  kTotal,       ///< aggregate window across active senders (a = mss, b = rtt)
  // kLoss
  kOnset,     ///< loss rate became positive (a = rate)
  kClear,     ///< loss rate returned to zero (a = previous rate)
  kInjected,  ///< injected (non-congestion) loss transition (a = observed)
  // kSchedule
  kBandwidth,  ///< bandwidth scale changed (a = new scale, b = previous)
  kRtt,        ///< RTT scale changed (a = new scale, b = previous)
  // kChurn
  kJoin,   ///< cohort became active (a = member count)
  kLeave,  ///< cohort became inactive (a = member count)
  // kCohort
  kKernel,    ///< cohort runs the SoA batch kernel (a = member count)
  kFallback,  ///< cohort dispatches per member (a = member count)
  kUniform,   ///< cohort runs as one uniform representative (a = count)
  // kGuard
  kCheck,  ///< sampled invariant check passed (a = aggregate window)
  kTrip,   ///< invariant tripped (a = offending value, b = FaultKind)
  // kMetric — one closed scope window per axis (a = value, b = the window's
  // first step; `step` is its last). Codes follow scope::Axis order.
  kEfficiency,       ///< Metric I
  kFastUtilization,  ///< Metric II
  kLossAvoidance,    ///< Metric III (lower is better)
  kFairness,         ///< Metric IV
  kConvergence,      ///< Metric V
  kRobustness,       ///< Metric VI (online escape-fraction proxy)
  kFriendliness,     ///< Metric VII
  kLatency,          ///< Metric VIII (lower is better)
};

/// Which timeline lane an event belongs to. Lanes bound memory: every lane
/// owns one fixed-depth ring, and aggregate-mode runs only materialize the
/// run lane plus one lane per cohort, keeping recording memory independent
/// of the sender population.
enum class Subject : unsigned char {
  kRun = 0,  ///< whole-run lane (subject id is -1)
  kCohort,   ///< one homogeneous sender group (subject id = cohort index)
  kSender,   ///< one individual sender (subject id = sender index)
  kLink,     ///< one bottleneck of a routed topology (subject id = link id)
};

inline constexpr int kNumSubjects = 4;

/// A single timeline entry. Plain data; meaning of `a`/`b` is per-code
/// (documented on `EventCode`). `step` is the simulation step (fluid: one
/// RTT per step; packet: one trace sample per step).
struct Event {
  long step = 0;
  EventClass cls = EventClass::kWindow;
  EventCode code = EventCode::kSample;
  Subject subject_kind = Subject::kRun;
  int subject = -1;
  double a = 0.0;
  double b = 0.0;

  friend bool operator==(const Event&, const Event&) = default;
};

[[nodiscard]] const char* event_class_name(EventClass cls);
[[nodiscard]] const char* event_code_name(EventCode code);
[[nodiscard]] const char* subject_name(Subject subject);

/// Inverse lookups for the JSONL reader; return false on unknown names.
[[nodiscard]] bool event_class_from_name(const char* name, EventClass& out);
[[nodiscard]] bool event_code_from_name(const char* name, EventCode& out);
[[nodiscard]] bool subject_from_name(const char* name, Subject& out);

/// Parses a `','` or `'+'` separated list of event-class names ("window",
/// "loss", ...; "all" selects every class) into a `RecordOptions::classes`
/// bitmask — the conversion behind the CLI's `--record=dir,classes=<list>`
/// syntax. Throws std::invalid_argument naming the offending token on an
/// unknown class or an empty list.
[[nodiscard]] unsigned parse_class_mask(const char* names);

}  // namespace axiomcc::recorder

#endif  // AXIOMCC_RECORDER_EVENT_H_
