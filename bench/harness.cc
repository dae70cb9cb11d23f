#include "bench/harness.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

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

/// --out and --telemetry, then the bench's own flags.
std::vector<Flag> with_common_flags(const std::vector<Flag>& flags) {
  std::vector<Flag> all{{"out", Flag::kText}, {"telemetry"}};
  all.insert(all.end(), flags.begin(), flags.end());
  return all;
}

bool declares(const std::vector<Flag>& flags, std::string_view name) {
  return std::any_of(flags.begin(), flags.end(),
                     [name](const Flag& f) { return f.name == name; });
}

/// The --record value `value`; an empty directory means `out_dir`.
RecordRequest parse_record(const std::string& value,
                           const std::string& out_dir) {
  // Everything after ",classes=" is the class list, which may itself be
  // comma-separated, so split at the marker rather than the first comma.
  static constexpr std::string_view kClasses = ",classes=";
  const auto marker = value.find(kClasses);
  RecordRequest request;
  request.dir = value.substr(0, marker);
  if (request.dir.empty()) request.dir = out_dir;
  if (marker == std::string::npos) return request;
  try {
    request.classes = recorder::parse_class_mask(
        value.substr(marker + kClasses.size()).c_str());
  } catch (const std::invalid_argument& e) {
    throw UsageError("invalid value for --record: " + std::string(e.what()));
  }
  return request;
}

}  // namespace

Flag backend_flag() {
  return {"backend", Flag::kChoice, "fluid", Bound::kAny, {"fluid", "packet"}};
}

Flag record_flag() { return {"record", Flag::kText}; }

Harness::Harness(int argc, const char* const* argv, std::string name,
                 std::vector<Flag> flags)
    : args_(argc, argv, with_common_flags(flags)), name_(std::move(name)) {
  AXIOMCC_EXPECTS(!name_.empty());
  out_dir_ = args_.get_text("out");
  if (out_dir_.empty()) out_dir_ = "artifacts";
  report_jobs_ = declares(flags, "jobs") ? jobs() : hardware_jobs();
  if (declares(flags, "record") && args_.has("record")) {
    record_ = parse_record(args_.get_text("record"), out_dir_);
  }

  if (!args_.has("telemetry")) return;
  telemetry_ = true;
  telemetry::Registry::global().reset_values();
  telemetry::Tracer::global().reset();
  telemetry::set_enabled(true);
}

Harness::~Harness() {
  if (telemetry_) telemetry::set_enabled(false);
}

engine::BackendKind Harness::backend() const {
  return engine::parse_backend(args_.get_text("backend"));
}

BenchReport& Harness::report(std::string name) {
  BenchReport& report = reports_.emplace_back(name.empty() ? name_ : name);
  report.set_jobs(report_jobs_);
  return report;
}

void Harness::finish(std::string_view backend) {
  AXIOMCC_EXPECTS_MSG(!finished_, "finish() runs once");
  finished_ = true;

  std::vector<std::pair<std::string, std::int64_t>> deterministic;
  if (telemetry_) {
    telemetry_ = false;
    telemetry::set_enabled(false);
    for (telemetry::CounterSnapshot& c :
         telemetry::Registry::global().snapshot().counters) {
      deterministic.emplace_back(std::move(c.name), c.value);
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
    ledger::append_record(path, record);
    std::fprintf(stderr, "[ledger] appended %s -> %s\n", report.name().c_str(),
                 path.c_str());
  }
}

int run(int argc, const char* const* argv, std::string name,
        std::vector<Flag> flags, const std::function<int(Harness&)>& body) {
  return run_cli([&] {
    Harness harness(argc, argv, std::move(name), std::move(flags));
    return body(harness);
  });
}

}  // namespace axiomcc::bench
