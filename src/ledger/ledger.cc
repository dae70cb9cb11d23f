#include "ledger/ledger.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "ledger/provenance.h"
#include "util/json.h"
#include "util/task_pool.h"

namespace axiomcc::ledger {

namespace {

void append_kv_string(std::string& out, const char* key,
                      const std::string& value) {
  append_json_string(out, key);
  out += ":";
  append_json_string(out, value);
}

}  // namespace

std::string to_jsonl(const LedgerRecord& record) {
  std::string out = "{\"schema_version\":";
  out += std::to_string(record.schema_version);
  out += ",";
  append_kv_string(out, "timestamp_utc", record.timestamp_utc);
  out += ",";
  append_kv_string(out, "bench", record.bench);
  out += ",";
  append_kv_string(out, "git_sha", record.git_sha);
  out += ",";
  append_kv_string(out, "build_flavor", record.build_flavor);
  out += ",";
  append_kv_string(out, "backend", record.backend);
  out += ",\"jobs\":";
  out += std::to_string(record.jobs);
  out += ",\"hardware_jobs\":";
  out += std::to_string(record.hardware_jobs);
  out += ",\"total_seconds\":";
  append_json_number(out, record.total_seconds);
  out += ",\"phases\":{";
  for (std::size_t i = 0; i < record.phases.size(); ++i) {
    if (i > 0) out += ",";
    append_json_string(out, record.phases[i].first);
    out += ":";
    append_json_number(out, record.phases[i].second);
  }
  out += "},\"counters\":{";
  for (std::size_t i = 0; i < record.counters.size(); ++i) {
    if (i > 0) out += ",";
    append_json_string(out, record.counters[i].first);
    out += ":";
    append_json_number(out, record.counters[i].second);
  }
  out += "},\"deterministic_counters\":{";
  for (std::size_t i = 0; i < record.deterministic_counters.size(); ++i) {
    if (i > 0) out += ",";
    append_json_string(out, record.deterministic_counters[i].first);
    out += ":";
    out += std::to_string(record.deterministic_counters[i].second);
  }
  out += "}}";
  return out;
}

std::optional<LedgerRecord> parse_record(std::string_view line) {
  JsonValue doc;
  try {
    doc = parse_json(line);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;

  const JsonValue* version = doc.find("schema_version");
  const JsonValue* bench = doc.find("bench");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber ||
      bench == nullptr || bench->kind != JsonValue::Kind::kString ||
      bench->string.empty()) {
    return std::nullopt;
  }

  LedgerRecord record;
  record.schema_version = static_cast<int>(version->number);
  record.bench = bench->string;

  const auto read_string = [&doc](const char* key, std::string& into) {
    const JsonValue* v = doc.find(key);
    if (v != nullptr && v->kind == JsonValue::Kind::kString) into = v->string;
  };
  read_string("timestamp_utc", record.timestamp_utc);
  read_string("git_sha", record.git_sha);
  read_string("build_flavor", record.build_flavor);
  read_string("backend", record.backend);

  const auto read_long = [&doc](const char* key, long& into) {
    const JsonValue* v = doc.find(key);
    if (v != nullptr && v->kind == JsonValue::Kind::kNumber) {
      into = static_cast<long>(v->number);
    }
  };
  read_long("jobs", record.jobs);
  read_long("hardware_jobs", record.hardware_jobs);

  if (const JsonValue* total = doc.find("total_seconds");
      total != nullptr && total->kind == JsonValue::Kind::kNumber) {
    record.total_seconds = total->number;
  }

  const auto read_number_map =
      [&doc](const char* key,
             std::vector<std::pair<std::string, double>>& into) {
        const JsonValue* v = doc.find(key);
        if (v == nullptr || !v->is_object()) return;
        for (const auto& [name, value] : v->object) {
          if (value.kind == JsonValue::Kind::kNumber) {
            into.emplace_back(name, value.number);
          } else if (value.is_null()) {  // non-finite rendered as null
            into.emplace_back(name, std::nan(""));
          }
        }
      };
  read_number_map("phases", record.phases);
  read_number_map("counters", record.counters);

  if (const JsonValue* det = doc.find("deterministic_counters");
      det != nullptr && det->is_object()) {
    for (const auto& [name, value] : det->object) {
      if (value.kind == JsonValue::Kind::kNumber) {
        record.deterministic_counters.emplace_back(
            name, static_cast<std::int64_t>(value.number));
      }
    }
  }
  return record;
}

LedgerFile read_ledger(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open ledger " + path);
  LedgerFile file;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (auto record = parse_record(line)) {
      file.records.push_back(std::move(*record));
    } else {
      ++file.skipped_lines;
    }
  }
  return file;
}

void append_record(const std::string& path, const LedgerRecord& record) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;  // best-effort; the open below reports failure
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("cannot append to ledger " + path);
  out << to_jsonl(record) << '\n';
  out.flush();
  if (!out.good()) throw std::runtime_error("short append to ledger " + path);
}

LedgerRecord record_from_bench(const BenchReport& bench,
                               const std::string& backend) {
  LedgerRecord record;
  record.timestamp_utc = bench.timestamp_utc();
  record.bench = bench.name();
  const Provenance prov = current_provenance();
  record.git_sha = prov.git_sha;
  record.build_flavor = prov.build_flavor;
  record.backend = backend;
  record.jobs = bench.jobs();
  record.hardware_jobs = hardware_jobs();
  record.total_seconds = bench.total_seconds();
  record.phases = bench.phases();
  record.counters = bench.counters();
  std::stable_sort(
      record.counters.begin(), record.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return record;
}

}  // namespace axiomcc::ledger
