#include "util/cli.h"

#include <stdexcept>

#include "util/task_pool.h"

namespace axiomcc {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
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

bool ArgParser::has(const std::string& key) const {
  return values_.contains(key);
}

long ArgParser::get_jobs() const { return resolve_jobs(get_int("jobs", 0)); }

}  // namespace axiomcc
