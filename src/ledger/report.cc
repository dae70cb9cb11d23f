#include "ledger/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "ledger/sentinel.h"
#include "util/stats.h"

namespace axiomcc::ledger {

namespace {

/// One metric's trajectory across a group's history window.
struct Series {
  std::string name;
  const char* cls = "exact";       ///< "timing" | "exact" | "det"
  std::vector<double> history;     ///< oldest first, newest last.
  /// Per-record core divisor aligned with `history`: the record's own job
  /// count, falling back to the hardware concurrency RECORDED IN THAT RUN
  /// — never the reporting machine's — so a ledger carried across machines
  /// normalizes each run by the cores it actually used.
  std::vector<double> divisors;
};

double record_divisor(const LedgerRecord& record) {
  if (record.jobs > 0) return static_cast<double>(record.jobs);
  if (record.hardware_jobs > 0) return static_cast<double>(record.hardware_jobs);
  return 1.0;
}

std::string fmt_value(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

std::string fmt_delta(double newest, double median) {
  if (newest == median) return "=";
  if (median == 0.0) return "new";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%",
                (newest - median) / std::abs(median) * 100.0);
  return buf;
}

template <typename Value>
std::optional<double> find_metric(
    const std::vector<std::pair<std::string, Value>>& metrics,
    const std::string& name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return static_cast<double>(value);
  }
  return std::nullopt;
}

/// Collects the group's metric series in display order: the newest record's
/// phases, then workload counters, then deterministic counters; history is
/// whatever subset of the window carries each metric.
std::vector<Series> collect_series(
    std::span<const LedgerRecord> window) {
  const LedgerRecord& newest = window.back();
  std::vector<Series> series;

  const auto push_history = [&window](Series& s, const auto& member) {
    for (const LedgerRecord& record : window) {
      if (const auto v = find_metric(record.*member, s.name)) {
        s.history.push_back(*v);
        s.divisors.push_back(record_divisor(record));
      }
    }
  };

  for (const auto& [name, seconds] : newest.phases) {
    (void)seconds;
    Series s{name + " (s)", "timing", {}, {}};
    for (const LedgerRecord& record : window) {
      if (const auto v = find_metric(record.phases, name)) {
        s.history.push_back(*v);
        s.divisors.push_back(record_divisor(record));
      }
    }
    series.push_back(std::move(s));
  }
  for (const auto& [name, value] : newest.counters) {
    (void)value;
    Series s{name, is_timing_counter(name) ? "timing" : "exact", {}, {}};
    push_history(s, &LedgerRecord::counters);
    series.push_back(std::move(s));
  }
  for (const auto& [name, value] : newest.deterministic_counters) {
    (void)value;
    Series s{name, "det", {}, {}};
    push_history(s, &LedgerRecord::deterministic_counters);
    series.push_back(std::move(s));
  }
  return series;
}

std::string short_sha(const std::string& sha) {
  return sha.size() > 9 ? sha.substr(0, 9) : sha;
}

}  // namespace

std::string render_ledger_report(
    const std::vector<LedgerRecord>& records, const ReportOptions& options,
    const std::function<std::string(const std::vector<double>&)>& spark) {
  std::map<std::pair<std::string, std::string>, std::vector<LedgerRecord>>
      groups;
  for (const LedgerRecord& record : records) {
    if (!options.bench_filter.empty() && record.bench != options.bench_filter) {
      continue;
    }
    groups[{record.bench, record.backend}].push_back(record);
  }

  std::string out = "# Bench trend report\n\n";
  if (groups.empty()) {
    out += options.bench_filter.empty()
               ? "_Empty ledger — nothing to report._\n"
               : "_No records for bench `" + options.bench_filter + "`._\n";
    return out;
  }

  std::size_t total = 0;
  std::string newest_ts, newest_sha;
  for (const auto& [key, group] : groups) {
    total += group.size();
    if (group.back().timestamp_utc > newest_ts) {
      newest_ts = group.back().timestamp_utc;
      newest_sha = group.back().git_sha;
    }
  }
  out += "_" + std::to_string(total) + " run(s) across " +
         std::to_string(groups.size()) + " bench group(s); newest " +
         newest_ts + " (sha " + short_sha(newest_sha) + ")._\n";

  for (const auto& [key, group] : groups) {
    const std::size_t take = std::min(group.size(), options.max_history);
    const std::span<const LedgerRecord> window(
        group.data() + (group.size() - take), take);
    const LedgerRecord& newest = window.back();

    out += "\n## `" + key.first + "`";
    if (!key.second.empty()) out += " — backend `" + key.second + "`";
    out += "\n\n";
    out += std::to_string(group.size()) + " run(s)";
    if (window.size() > 1) {
      out += " (showing last " + std::to_string(window.size()) + ", " +
             window.front().timestamp_utc + " → " + newest.timestamp_utc + ")";
    }
    out += "; newest sha " + short_sha(newest.git_sha) + ", jobs " +
           std::to_string(newest.jobs) + ", flavor " + newest.build_flavor +
           ".\n\n";

    const bool trend = static_cast<bool>(spark);
    out += trend ? "| Metric | Class | Newest | Per-core | Median | Δ | "
                   "Trend |\n|:--|:--|--:|--:|--:|--:|:--|\n"
                 : "| Metric | Class | Newest | Per-core | Median | Δ |\n"
                   "|:--|:--|--:|--:|--:|--:|\n";

    for (const Series& s : collect_series(window)) {
      if (s.history.empty()) continue;
      const double newest_value = s.history.back();
      // Rate counters get a per-core normalization using EACH record's own
      // recorded core count (its --jobs, else the hardware concurrency it
      // ran with), so throughput compares across runs from machines with
      // different core counts — and the Median/Δ/Trend columns for a rate
      // row compare the normalized values, not raw rates that silently mix
      // job counts.
      const bool is_rate = s.name.find("_per_sec") != std::string::npos;
      std::vector<double> normalized;
      if (is_rate) {
        normalized.reserve(s.history.size());
        for (std::size_t i = 0; i < s.history.size(); ++i) {
          normalized.push_back(s.history[i] / s.divisors[i]);
        }
      }
      const std::vector<double>& compared = is_rate ? normalized : s.history;
      const std::string per_core =
          is_rate ? fmt_value(normalized.back()) : "";
      // Median of the prior runs; with a single run the newest is its own
      // baseline and the delta column shows "=".
      const std::span<const double> prior(compared.data(),
                                          compared.size() - 1);
      const double median =
          prior.empty() ? compared.back() : median_of(prior);
      out += "| `" + s.name + "` | " + s.cls + " | " +
             fmt_value(newest_value) + " | " + per_core + " | " +
             fmt_value(median) + " | " + fmt_delta(compared.back(), median) +
             " |";
      if (trend) {
        out += ' ';
        if (compared.size() > 1) out += spark(compared);
        out += " |";
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace axiomcc::ledger
