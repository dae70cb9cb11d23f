#include "util/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <type_traits>
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

namespace {

/// `text`, the value of --key, parsed whole as a T (long or double). Any
/// failure is a UsageError naming the flag, its value and what it takes.
template <typename T>
T parse_number(const std::string& key, const std::string& text, Sign sign) {
  constexpr bool kInteger = std::is_integral_v<T>;
  const std::string noun = kInteger ? "integer" : "real number";
  std::string expected = kInteger ? "an integer" : "a real number";
  if (sign == Sign::kNonNegative) expected = "a non-negative " + noun;
  if (sign == Sign::kPositive) expected = "a positive " + noun;

  std::size_t pos = std::string::npos;
  T parsed{};
  // stod/stol throw bare "stod"/"stol" messages on empty, garbage or
  // overflowing input; every failure is reported against the flag instead.
  try {
    if constexpr (kInteger) {
      parsed = std::stol(text, &pos);
    } else {
      parsed = std::stod(text, &pos);
    }
  } catch (const std::out_of_range&) {
    throw UsageError("value out of range for --" + key + ": '" + text +
                     "' (expected " + expected + ")");
  } catch (const std::invalid_argument&) {
  }
  if (pos != text.size()) {
    throw UsageError(std::string("malformed ") +
                     (kInteger ? "integer" : "number") + " for --" + key +
                     ": '" + text + "' (expected " + expected + ", e.g. --" +
                     key + "=" + (kInteger ? "4" : "2.5") + ")");
  }
  const auto value = static_cast<double>(parsed);
  const bool fits = sign == Sign::kAny ||
                    (std::isfinite(value) &&
                     (sign == Sign::kPositive ? value > 0.0 : value >= 0.0));
  if (!fits) {
    throw UsageError("invalid value for --" + key + ": '" + text +
                     "' (expected " + expected + ")");
  }
  return parsed;
}

}  // namespace

double ArgParser::get_double(const std::string& key, double fallback,
                             Sign sign) const {
  const auto v = get(key);
  return v ? parse_number<double>(key, *v, sign) : fallback;
}

long ArgParser::get_int(const std::string& key, long fallback,
                        Sign sign) const {
  const auto v = get(key);
  return v ? parse_number<long>(key, *v, sign) : fallback;
}

std::vector<double> ArgParser::get_doubles(const std::string& key,
                                           const std::string& fallback,
                                           Sign sign) const {
  std::vector<double> out;
  for (const std::string& item : get_list(key, fallback)) {
    out.push_back(parse_number<double>(key, item, sign));
  }
  return out;
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
