#include "bench/harness.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <utility>

#include "analysis/ascii_plot.h"
#include "ledger/ledger.h"
#include "telemetry/telemetry.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc::bench {
namespace {

/// Total span time per category, widest first.
std::string span_flame_summary(
    const std::vector<telemetry::SpanEvent>& events) {
  if (events.empty()) return {};
  std::map<std::string, double> by_category;
  for (const telemetry::SpanEvent& e : events) {
    by_category[e.category] += static_cast<double>(e.duration_us) / 1000.0;
  }
  std::vector<analysis::Bar> bars;
  bars.reserve(by_category.size());
  for (const auto& [category, total_ms] : by_category) {
    bars.push_back(analysis::Bar{category, total_ms});
  }
  std::stable_sort(bars.begin(), bars.end(),
                   [](const analysis::Bar& a, const analysis::Bar& b) {
                     return a.value > b.value;
                   });
  return analysis::bar_chart(bars, 50, "span time by category (ms):");
}

}  // namespace

Harness::Harness(int argc, const char* const* argv, std::string name,
                 std::initializer_list<std::string_view> flags)
    : args_(argc, argv), name_(std::move(name)), flags_{"out", "telemetry"} {
  AXIOMCC_EXPECTS(!name_.empty());
  flags_.insert(flags_.end(), flags.begin(), flags.end());
  for (const auto& [flag, value] : args_.flags()) {
    if (reads(flag)) continue;
    std::string accepted;
    for (const std::string& f : flags_) accepted += " --" + f;
    throw UsageError("unknown flag --" + flag + " (bench_" + name_ +
                     " reads" + accepted + ")");
  }
  if (!args_.positional().empty()) {
    throw UsageError("unexpected argument '" + args_.positional().front() +
                     "' (flags are --key=value)");
  }
  if (!args_.get_or("telemetry", "").empty()) {
    throw UsageError("--telemetry is a switch and takes no value (the trace "
                     "lands in --out)");
  }
  out_dir_ = args_.get_or("out", "");
  if (out_dir_.empty()) out_dir_ = "artifacts";

  if (!args_.has("telemetry")) return;
  if (!telemetry::compiled_in()) {
    std::fprintf(stderr,
                 "[telemetry] requested but compiled out "
                 "(AXIOMCC_TELEMETRY=OFF build) — ignoring\n");
    return;
  }
  telemetry_ = true;
  telemetry::Registry::global().reset_values();
  telemetry::Tracer::global().reset();
  telemetry::set_enabled(true);
}

Harness::~Harness() {
  if (telemetry_) telemetry::set_enabled(false);
}

bool Harness::reads(std::string_view flag) const {
  return std::any_of(flags_.begin(), flags_.end(),
                     [flag](std::string_view f) {
                       return f == flag ||
                              (f.ends_with('*') &&
                               flag.starts_with(f.substr(0, f.size() - 1)));
                     });
}

long Harness::jobs() const {
  AXIOMCC_EXPECTS_MSG(reads("jobs"), "the bench does not read --jobs");
  return args_.get_jobs();
}

engine::BackendKind Harness::backend() const {
  AXIOMCC_EXPECTS_MSG(reads("backend"), "the bench does not read --backend");
  return engine::parse_backend(args_.get_or("backend", "fluid"));
}

std::optional<RecordRequest> Harness::record() const {
  AXIOMCC_EXPECTS_MSG(reads("record"), "the bench does not read --record");
  const auto value = args_.get("record");
  if (!value) return std::nullopt;
  // Everything after ",classes=" is the class list, which may itself be
  // comma-separated, so split at the marker rather than the first comma.
  static constexpr std::string_view kClasses = ",classes=";
  const auto marker = value->find(kClasses);
  RecordRequest request;
  request.dir = value->substr(0, marker);
  if (request.dir.empty()) request.dir = out_dir_;
  if (marker != std::string::npos) {
    request.classes = recorder::parse_class_mask(
        value->substr(marker + kClasses.size()).c_str());
  }
  return request;
}

BenchReport& Harness::report(std::string name) {
  BenchReport& report = reports_.emplace_back(name.empty() ? name_ : name);
  report.set_jobs(reads("jobs") ? jobs() : hardware_jobs());
  return report;
}

void Harness::finish(std::string_view backend) {
  AXIOMCC_EXPECTS_MSG(!finished_, "finish() runs once");
  finished_ = true;

  std::string snapshot_json;
  std::vector<std::pair<std::string, std::int64_t>> deterministic;
  if (telemetry_) {
    telemetry_ = false;
    telemetry::set_enabled(false);
    const telemetry::RegistrySnapshot snapshot =
        telemetry::Registry::global().snapshot();
    snapshot_json = snapshot.to_json();
    for (const telemetry::CounterSnapshot& c : snapshot.counters) {
      if (c.stability == telemetry::Stability::kDeterministic) {
        deterministic.emplace_back(c.name, c.value);
      }
    }

    const auto events = telemetry::Tracer::global().collect();
    std::error_code ec;  // best-effort mkdir -p; the write reports failure
    std::filesystem::create_directories(out_dir_, ec);
    const std::string trace_path = out_dir_ + "/trace_" + name_ + ".json";
    if (telemetry::write_chrome_trace(trace_path, events)) {
      std::fprintf(stderr, "[telemetry] %zu spans -> %s", events.size(),
                   trace_path.c_str());
      const std::uint64_t dropped = telemetry::Tracer::global().dropped();
      if (dropped > 0) {
        std::fprintf(stderr, " (%llu dropped: ring full)",
                     static_cast<unsigned long long>(dropped));
      }
      std::fprintf(stderr, "\n");
    } else {
      std::fprintf(stderr, "[telemetry] cannot write %s\n", trace_path.c_str());
    }
    const std::string summary = span_flame_summary(events);
    if (!summary.empty()) std::fputs(summary.c_str(), stderr);
  }

  const std::string path = out_dir_ + "/ledger.jsonl";
  for (const BenchReport& report : reports_) {
    ledger::LedgerRecord record =
        ledger::record_from_bench(report, std::string(backend));
    record.deterministic_counters = deterministic;
    record.telemetry = snapshot_json;
    ledger::append_record(path, record);
    std::fprintf(stderr, "[ledger] appended %s -> %s\n", report.name().c_str(),
                 path.c_str());
  }
}

int run(int argc, const char* const* argv, std::string name,
        std::initializer_list<std::string_view> flags,
        const std::function<int(Harness&)>& body) {
  try {
    Harness harness(argc, argv, std::move(name), flags);
    return body(harness);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace axiomcc::bench
