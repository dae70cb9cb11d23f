// inspect.cc — axiomcc-inspect: flight-recording triage CLI.
//
// Reads back what the recorder wrote (recordings, post-mortems) or
// re-executes a `.scn` reproducer on both backends, and renders the result
// in the terminal. The headline mode is --align: step-align two timelines
// (fluid vs packet, or any two recording files) and localize the first
// divergence step with the surrounding events from each side.
//
// Usage:
//   axiomcc-inspect <recording.jsonl>           render the timeline
//   axiomcc-inspect <postmortem.jsonl>          render the post-mortem
//   axiomcc-inspect <repro.scn>                 run fluid+packet, show both
//   axiomcc-inspect --align <l.jsonl> <r.jsonl> align two recordings
//   axiomcc-inspect --align <repro.scn>         run fluid vs packet + align
//
// Options: --tolerance=R (sampled-value gap, default 0.25), --context=N
// (steps of events around the divergence), --with-cohort (compare the
// fluid cohort execution-mode events too), --classes=<list> (restrict
// alignment to the named event classes — `--classes=metric` localizes the
// first divergent metric window instead of the first raw-lane gap),
// --stride=N / --depth=N (capture options for .scn runs), --scope-window=W
// (metric-scope window in steps for .scn runs; 0 disables the scope,
// default 64), --events=N (discrete-event lines rendered).
//
// Reproducer runs attach a streaming MetricScope, so timelines include the
// per-window axiom estimates (kMetric lanes) and --align localizes the
// first divergent metric window. Recordings carry the git SHA they were
// captured under; when two aligned recordings come from different SHAs the
// report is annotated with both, so captures from two checkouts of the
// repo can be diffed directly.
//
// Exit codes: 0 rendered / aligned, 2 aligned-and-diverged, 1 error (an
// unknown flag among them).
#include <cstdio>
#include <exception>
#include <string>

#include "analysis/recorder_report.h"
#include "fuzz/fuzzer.h"
#include "fuzz/runner.h"
#include "ledger/provenance.h"
#include "recorder/align.h"
#include "recorder/io.h"
#include "recorder/postmortem.h"
#include "util/cli.h"

namespace {

using namespace axiomcc;

enum class FileKind { kScenario, kRecording, kPostMortem };

/// Sniffs a triage input by content, not extension: `.scn` reproducers
/// declare themselves with an "axiomcc-scenario" line (comments allowed
/// above it), recorder artifacts with a schema field in the JSONL header.
FileKind sniff(const std::string& text, const std::string& path) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("axiomcc-scenario", 0) == 0) return FileKind::kScenario;
    if (line.find("\"axiomcc-recording\"") != std::string::npos) {
      return FileKind::kRecording;
    }
    if (line.find("\"axiomcc-postmortem\"") != std::string::npos) {
      return FileKind::kPostMortem;
    }
    break;
  }
  throw std::runtime_error(path +
                           ": not a scenario, recording, or post-mortem");
}

recorder::AlignOptions align_options(const ArgParser& args) {
  recorder::AlignOptions options;
  options.tolerance = args.get_double("tolerance", options.tolerance);
  options.context = args.get_int("context", options.context);
  if (args.has("with-cohort")) {
    options.classes |= recorder::class_bit(recorder::EventClass::kCohort);
  }
  // --classes=metric asks the metric-view question alone: "where do the
  // backends' axiom estimates first disagree", skipping raw-lane gaps.
  if (const auto classes = args.get("classes")) {
    options.classes = recorder::parse_class_mask(classes->c_str());
  }
  return options;
}

fuzz::RunnerConfig runner_config(const ArgParser& args) {
  fuzz::RunnerConfig config;
  config.record.enabled = true;
  config.record.sample_stride = args.get_int("stride", 16);
  config.record.ring_depth = args.get_int("depth", 256);
  // Metric windows ride the recording as kMetric events; 0 turns the
  // scope off (e.g. to reproduce a pre-scope capture byte-for-byte).
  const long window = args.get_int("scope-window", 64);
  config.scope.enabled = window > 0;
  config.scope.window_steps = window;
  return config;
}

analysis::TimelineOptions timeline_options(const ArgParser& args) {
  analysis::TimelineOptions options;
  options.max_events = args.get_int("events", options.max_events);
  return options;
}

/// Runs a reproducer on both backends with recording on. Prints the
/// outcome line the fuzz oracle would classify it as.
fuzz::RecordedScenario run_reproducer(const std::string& text,
                                      const ArgParser& args) {
  fuzz::RecordedScenario rs = fuzz::run_scenario_recorded(
      fuzz::parse_scenario(text), runner_config(args));
  // Stamp provenance so a saved capture of this run can later be aligned
  // against one from another checkout.
  const std::string sha = ledger::current_provenance().git_sha;
  rs.fluid.git_sha = sha;
  rs.packet.git_sha = sha;
  std::printf("outcome: %s", fuzz::outcome_kind_name(rs.outcome.kind));
  if (rs.outcome.divergence > 0.0) {
    std::printf(" (metric divergence %.3f)", rs.outcome.divergence);
  }
  std::printf("\n");
  return rs;
}

/// A recording's SHA when it carries a usable one ("" otherwise).
std::string recorded_sha(const recorder::Recording& r) {
  if (r.git_sha.empty() || r.git_sha == "unknown") return "";
  return r.git_sha.substr(0, 12);
}

int align_and_render(const recorder::Recording& left,
                     const recorder::Recording& right,
                     const std::string& left_label,
                     const std::string& right_label, const ArgParser& args) {
  // Cross-SHA alignment: when the two recordings were captured under
  // different checkouts, say so up front and tag the side labels, so the
  // divergence report reads as "old code vs new code", not fluid-vs-packet.
  const std::string left_sha = recorded_sha(left);
  const std::string right_sha = recorded_sha(right);
  std::string ll = left_label;
  std::string rl = right_label;
  if (!left_sha.empty() && !right_sha.empty() && left_sha != right_sha) {
    std::printf("cross-SHA alignment: %s @%s vs %s @%s\n", left_label.c_str(),
                left_sha.c_str(), right_label.c_str(), right_sha.c_str());
    ll += "@" + left_sha;
    rl += "@" + right_sha;
  }
  const recorder::AlignResult result =
      recorder::align_recordings(left, right, align_options(args));
  std::fputs(analysis::render_alignment(result, ll, rl).c_str(), stdout);
  return result.diverged ? 2 : 0;
}

int run(const ArgParser& args) {
  const auto& files = args.positional();
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: axiomcc-inspect [--align] <file> [<file>]\n"
                 "       (see the header of tools/inspect.cc)\n");
    return 1;
  }

  if (args.has("align")) {
    if (files.size() == 2) {
      const recorder::Recording left =
          recorder::parse_recording_jsonl(recorder::read_text_file(files[0]));
      const recorder::Recording right =
          recorder::parse_recording_jsonl(recorder::read_text_file(files[1]));
      return align_and_render(left, right, files[0], files[1], args);
    }
    if (files.size() == 1) {
      const std::string text = recorder::read_text_file(files[0]);
      if (sniff(text, files[0]) != FileKind::kScenario) {
        std::fprintf(stderr,
                     "--align with one file needs a .scn reproducer; "
                     "pass two recording files to align artifacts\n");
        return 1;
      }
      const fuzz::RecordedScenario rs = run_reproducer(text, args);
      return align_and_render(rs.fluid, rs.packet, "fluid", "packet", args);
    }
    std::fprintf(stderr, "--align takes one .scn or two recording files\n");
    return 1;
  }

  int status = 0;
  for (const std::string& path : files) {
    const std::string text = recorder::read_text_file(path);
    switch (sniff(text, path)) {
      case FileKind::kScenario: {
        const fuzz::RecordedScenario rs = run_reproducer(text, args);
        std::fputs(
            analysis::render_timeline(rs.fluid, timeline_options(args))
                .c_str(),
            stdout);
        std::fputs(
            analysis::render_timeline(rs.packet, timeline_options(args))
                .c_str(),
            stdout);
        const int rc =
            align_and_render(rs.fluid, rs.packet, "fluid", "packet", args);
        status = rc != 0 ? rc : status;
        break;
      }
      case FileKind::kRecording:
        std::fputs(
            analysis::render_timeline(recorder::parse_recording_jsonl(text),
                                      timeline_options(args))
                .c_str(),
            stdout);
        break;
      case FileKind::kPostMortem:
        std::fputs(
            analysis::render_postmortem(recorder::parse_postmortem_jsonl(text),
                                        timeline_options(args))
                .c_str(),
            stdout);
        break;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(ArgParser(argc, argv,
                         {"align", "tolerance", "context", "with-cohort",
                          "classes", "stride", "depth", "scope-window",
                          "events"},
                         ArgParser::Positionals::kAccepted));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "axiomcc-inspect: %s\n", e.what());
    return 1;
  }
}
