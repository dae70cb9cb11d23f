#include "util/cli.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "util/task_pool.h"

namespace axiomcc {

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::vector<std::string> flags, Positionals positionals)
    : reads_(std::move(flags)) {
  const std::string_view path = argc > 0 ? argv[0] : "";
  const std::string program(path.substr(path.rfind('/') + 1));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positionals == Positionals::kRejected) {
        throw UsageError("unexpected argument '" + arg +
                         "' (flags are --key=value)");
      }
      positional_.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq - 2);  // npos - 2: to the end
    if (!reads(key)) {
      std::string accepted;
      for (const std::string& f : reads_) accepted += " --" + f;
      throw UsageError("unknown flag --" + key + " (" + program + " reads" +
                       accepted + ")");
    }
    values_[key] = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
}

std::optional<std::string> ArgParser::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(const std::string& key,
                              const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  // stod itself throws bare "stod" messages on empty/garbage/overflow input;
  // translate everything into one message naming the flag and its value.
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(*v, &pos);
    if (pos == v->size()) return parsed;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("value out of range for --" + key + ": '" +
                                *v + "' (expected a real number)");
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("malformed number for --" + key + ": '" + *v +
                              "' (expected a real number, e.g. --" + key +
                              "=2.5)");
}

long ArgParser::get_int(const std::string& key, long fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const long parsed = std::stol(*v, &pos);
    if (pos == v->size()) return parsed;
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("value out of range for --" + key + ": '" +
                                *v + "' (expected an integer)");
  } catch (const std::invalid_argument&) {
  }
  throw std::invalid_argument("malformed integer for --" + key + ": '" + *v +
                              "' (expected an integer, e.g. --" + key +
                              "=4)");
}

std::vector<std::string> ArgParser::get_list(
    const std::string& key, const std::string& fallback) const {
  std::vector<std::string> out;
  std::string item;
  int depth = 0;
  for (const char c : get_or(key, fallback)) {
    if (c == '(') ++depth;
    if (c == ')' && depth > 0) --depth;
    if (c == ',' && depth == 0) {
      if (!item.empty()) out.push_back(std::move(item));
      item.clear();
      continue;
    }
    item.push_back(c);
  }
  if (!item.empty()) out.push_back(std::move(item));
  return out;
}

bool ArgParser::has(const std::string& key) const {
  return values_.contains(key);
}

bool ArgParser::reads(std::string_view flag) const {
  return std::any_of(reads_.begin(), reads_.end(), [flag](std::string_view f) {
    return f == flag ||
           (f.ends_with('*') && flag.starts_with(f.substr(0, f.size() - 1)));
  });
}

long ArgParser::get_jobs() const { return resolve_jobs(get_int("jobs", 0)); }

int run_cli(const std::function<int()>& body) {
  try {
    return body();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace axiomcc
