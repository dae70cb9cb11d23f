#ifndef AXIOMCC_RECORDER_ALIGN_H_
#define AXIOMCC_RECORDER_ALIGN_H_

#include <string>
#include <vector>

#include "recorder/recorder.h"

namespace axiomcc::recorder {

/// Knobs for step-aligned comparison of two recordings.
struct AlignOptions {
  /// Classes that participate in the comparison. Cohort events describe
  /// HOW a run executed (kernel vs fallback vs uniform), not what the
  /// simulated system did, so they are excluded by default — a run and its
  /// twin in the other cohort layout must still align.
  unsigned classes = kAllClasses & ~class_bit(EventClass::kCohort);
  /// Relative tolerance for sampled values (window samples/totals, guard
  /// checks): |a-b| / max(1, |a|, |b|) above this diverges. Discrete
  /// events (loss transitions, schedule breakpoints, churn, guard trips)
  /// compare by presence at the exact step, not by magnitude.
  double tolerance = 0.25;
  /// Steps of surrounding events reported from both sides on divergence.
  long context = 6;
};

/// Outcome of aligning two recordings step by step.
struct AlignResult {
  bool diverged = false;
  long first_divergence_step = -1;  ///< -1 when the runs align
  EventClass trigger = EventClass::kWindow;
  std::string reason;        ///< human-readable one-liner
  long steps_compared = 0;   ///< size of the comparable step range
  long compare_start = 0;    ///< first comparable step (ring truncation)
  /// Events within `context` steps of the divergence, per side.
  std::vector<Event> left_events;
  std::vector<Event> right_events;
};

/// Walks both timelines in step order and reports the first step where
/// they disagree: a discrete event present on one side only, or a sampled
/// value outside `tolerance`. Ring-truncated prefixes (dropped > 0) are
/// excluded from the comparison; differing run lengths diverge at the
/// shorter run's end if nothing earlier does.
[[nodiscard]] AlignResult align_recordings(const Recording& left,
                                           const Recording& right,
                                           const AlignOptions& options = {});

}  // namespace axiomcc::recorder

#endif  // AXIOMCC_RECORDER_ALIGN_H_
