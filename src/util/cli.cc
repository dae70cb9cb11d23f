#include "util/cli.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/task_pool.h"

namespace axiomcc {
namespace {

static_assert(TaskPool::kMaxThreads == 1024, "Flag::jobs() states the cap");

/// The comma list `text`, split only outside parentheses.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  int depth = 0;
  for (const char c : text) {
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

/// `text`, the value of --key, parsed whole as a T (long or double) inside
/// `bound`. Any failure is a UsageError naming the flag, its value and
/// what it takes.
template <typename T>
T parse_number(const std::string& key, const std::string& text, Bound bound) {
  constexpr bool kInteger = std::is_integral_v<T>;
  const std::string adjective = bound.adjective;
  const std::string expected =
      (adjective.empty() ? (kInteger ? "an " : "a ") : "a " + adjective + " ") +
      (kInteger ? "integer" : "real number") + bound.suffix;

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
  if (!(value >= bound.min && value <= bound.max)) {
    throw UsageError("invalid value for --" + key + ": '" + text +
                     "' (expected " + expected + ")");
  }
  return parsed;
}

}  // namespace

ArgParser::Value ArgParser::parse(const Flag& flag, const std::string& text) {
  switch (flag.kind) {
    case Flag::kSwitch:
      break;
    case Flag::kText:
      return text;
    case Flag::kChoice: {
      std::string expected;
      for (const std::string& c : flag.choices) {
        if (c == text) return text;
        expected += (expected.empty() ? "" : "|") + c;
      }
      throw UsageError("invalid value for --" + flag.name + ": '" + text +
                       "' (expected " + expected + ")");
    }
    case Flag::kInt:
      return parse_number<long>(flag.name, text, flag.bound);
    case Flag::kReal:
      return parse_number<double>(flag.name, text, flag.bound);
    case Flag::kList:
      return split_list(text);
    case Flag::kReals: {
      std::vector<double> out;
      for (const std::string& item : split_list(text)) {
        out.push_back(parse_number<double>(flag.name, item, flag.bound));
      }
      if (out.empty()) throw UsageError("--" + flag.name + " lists no value");
      return out;
    }
  }
  return std::monostate{};
}

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::vector<Flag> flags, Positionals positionals) {
  for (Flag& flag : flags) {
    Entry& entry = entries_.emplace_back(Entry{std::move(flag)});
    const Flag::Kind kind = entry.flag.kind;
    // A default parses like a given value, so a bad one fails every run.
    try {
      if (!entry.flag.fallback.empty() || kind == Flag::kText ||
          kind == Flag::kList) {
        entry.value = parse(entry.flag, entry.flag.fallback);
      }
    } catch (const UsageError& e) {
      AXIOMCC_EXPECTS_MSG(false, std::string("malformed default: ") + e.what());
    }
  }

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
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&key](const Entry& e) { return e.flag.name == key; });
    if (it == entries_.end()) {
      std::string accepted;
      for (const Entry& e : entries_) accepted += " --" + e.flag.name;
      throw UsageError("unknown flag --" + key + " (" + program + " reads" +
                       accepted + ")");
    }
    if (it->flag.kind == Flag::kSwitch && eq != std::string::npos) {
      throw UsageError("--" + key + " is a switch and takes no value, got '" +
                       arg + "'");
    }
    it->value = parse(it->flag, eq == std::string::npos ? it->flag.fallback
                                                        : arg.substr(eq + 1));
    it->given = true;
  }
}

const ArgParser::Entry& ArgParser::find(const std::string& name) const {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&name](const Entry& e) { return e.flag.name == name; });
  AXIOMCC_EXPECTS_MSG(it != entries_.end(), "--" + name + " is not declared");
  return *it;
}

const ArgParser::Value& ArgParser::value(const std::string& name,
                                         Flag::Kind kind) const {
  const Entry& entry = find(name);
  AXIOMCC_EXPECTS_MSG(entry.flag.kind == kind ||
                          (kind == Flag::kText &&
                           entry.flag.kind == Flag::kChoice),
                      "--" + name + " is read as another kind");
  AXIOMCC_EXPECTS_MSG(!std::holds_alternative<std::monostate>(entry.value),
                      "--" + name + " has no default and was not given");
  return entry.value;
}

long ArgParser::get_jobs() const { return resolve_jobs(get_int("jobs")); }

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
