#ifndef AXIOMCC_RECORDER_RECORDER_H_
#define AXIOMCC_RECORDER_RECORDER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "recorder/event.h"

namespace axiomcc::recorder {

/// Capture configuration, carried on `engine::ScenarioSpec::record`.
/// Defaults keep a recording small and cheap: a few lanes of 256 events and
/// window samples every 16 steps cost well under a percent of tick-loop
/// time at bench scale.
struct RecordOptions {
  bool enabled = false;
  /// Bitmask of `class_bit(EventClass)`; everything by default.
  unsigned classes = kAllClasses;
  /// Fixed per-lane ring depth; the oldest events in a lane are dropped
  /// (and counted) once a lane exceeds this.
  long ring_depth = 256;
  /// Window samples (`kSample`/`kTotal`) are emitted on steps where
  /// `step % sample_stride == 0`. Discrete events (loss transitions,
  /// schedule breakpoints, churn, guard trips) always record.
  long sample_stride = 16;
};

/// An immutable captured timeline, decoupled from the capture machinery so
/// the JSONL reader, the aligner, and `axiomcc-inspect` work on files
/// without a Recorder.
struct Recording {
  int version = 2;
  std::string backend;  ///< "fluid" | "packet" | "" (unknown)
  /// Commit SHA of the binary that captured the timeline ("unknown" when
  /// provenance was unavailable, "" for schema-v1 files that predate the
  /// field). Stamped by the writer, not the Recorder — the recorder layer
  /// sits below the ledger's provenance resolver.
  std::string git_sha;
  long senders = 0;
  long steps = 0;  ///< steps observed by the run (0 if never set)
  RecordOptions options;
  std::uint64_t dropped = 0;  ///< events evicted from full lanes
  /// Emission order (the serial order of the run); stable across --jobs.
  std::vector<Event> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// Bounded deterministic event sink. One lane (fixed-depth ring) per
/// (subject kind, subject id); a global emission sequence preserves the
/// serial order of the run across lanes. All emission happens from the
/// serial sections of the simulation loops, so the recorder is
/// intentionally not thread-safe — one Recorder per run.
class Recorder {
 public:
  explicit Recorder(RecordOptions options);

  [[nodiscard]] bool wants(EventClass cls) const {
    return options_.enabled && (options_.classes & class_bit(cls)) != 0;
  }
  [[nodiscard]] long stride() const { return stride_; }
  /// True on steps where sampled (kWindow / kCheck) events are due.
  [[nodiscard]] bool sample_due(long step) const {
    return step % stride_ == 0;
  }

  void emit(const Event& event);

  /// Run metadata, stamped by the backend that drives the recorder.
  void set_backend(std::string backend) { backend_ = std::move(backend); }
  void set_senders(long senders) { senders_ = senders; }
  void note_step(long step) { steps_ = step + 1 > steps_ ? step + 1 : steps_; }

  /// Snapshot the captured timeline (events merged across lanes in
  /// emission order). Non-destructive; callable mid-run.
  [[nodiscard]] Recording snapshot() const;

 private:
  struct Entry {
    std::uint64_t seq = 0;
    Event event;
  };
  struct Lane {
    std::vector<Entry> ring;  ///< capacity ring_depth, oldest overwritten
    std::size_t next = 0;     ///< ring slot the next event lands in
    std::uint64_t total = 0;  ///< events ever emitted to this lane
  };

  Lane& lane_for(Subject kind, int subject);

  RecordOptions options_;
  long stride_ = 16;
  std::uint64_t seq_ = 0;
  std::string backend_;
  long senders_ = 0;
  long steps_ = 0;
  std::vector<Lane> lanes_;
  /// Lane lookup is on the emission fast path (one per event), so it is a
  /// direct index, not a hash: per subject kind, a subject-id-indexed table
  /// of lane-index-plus-one (0 = not yet created), grown on demand — the
  /// table only reaches ids that actually emit, so aggregate-mode runs
  /// never pay for the sender population. Negative subject ids (the run
  /// lane) get one scalar slot per kind.
  std::array<std::vector<std::uint32_t>, kNumSubjects> lane_slots_;
  std::array<std::uint32_t, kNumSubjects> neg_lane_slots_{};
};

}  // namespace axiomcc::recorder

#endif  // AXIOMCC_RECORDER_RECORDER_H_
