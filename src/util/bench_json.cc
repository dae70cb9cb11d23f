#include "util/bench_json.h"

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/check.h"
#include "util/json.h"
#include "util/task_pool.h"

namespace axiomcc {

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), timestamp_(iso8601_utc_now()) {
  AXIOMCC_EXPECTS(!name_.empty());
}

void BenchReport::set_timestamp_utc(std::string timestamp) {
  AXIOMCC_EXPECTS(!timestamp.empty());
  timestamp_ = std::move(timestamp);
}

void BenchReport::set_jobs(long jobs) { jobs_ = jobs; }

void BenchReport::add_phase(const std::string& phase, double seconds) {
  phases_.emplace_back(phase, seconds);
}

void BenchReport::add_counter(const std::string& counter, double value) {
  counters_.emplace_back(counter, value);
}

double BenchReport::total_seconds() const {
  double total = 0.0;
  for (const auto& [_, seconds] : phases_) total += seconds;
  return total;
}

std::string BenchReport::to_json() const {
  std::string out = "{\n  \"schema_version\": ";
  out += std::to_string(kBenchSchemaVersion);
  out += ",\n  \"bench\": ";
  append_json_string(out, name_);
  out += ",\n  \"timestamp_utc\": ";
  append_json_string(out, timestamp_);
  out += ",\n  \"jobs\": " + std::to_string(jobs_);
  out += ",\n  \"hardware_jobs\": " + std::to_string(hardware_jobs());
  out += ",\n  \"total_seconds\": ";
  append_json_number(out, total_seconds());
  out += ",\n  \"phases\": [";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += "    {\"name\": ";
    append_json_string(out, phases_[i].first);
    out += ", \"seconds\": ";
    append_json_number(out, phases_[i].second);
    out += "}";
  }
  out += phases_.empty() ? "]" : "\n  ]";
  // Counters sort by key so the artifact diffs cleanly even when the bench
  // records them in a run-dependent order.
  std::vector<std::pair<std::string, double>> sorted = counters_;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  out += ",\n  \"counters\": {";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out += (i == 0 ? "\n" : ",\n");
    out += "    ";
    append_json_string(out, sorted[i].first);
    out += ": ";
    append_json_number(out, sorted[i].second);
  }
  out += sorted.empty() ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

std::string BenchReport::write(const std::string& dir) const {
  std::error_code ec;  // best-effort mkdir -p; the open below reports failure
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << to_json();
  if (!out.good()) throw std::runtime_error("short write to " + path);
  return path;
}

}  // namespace axiomcc
