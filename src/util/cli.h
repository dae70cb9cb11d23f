// cli.h — the one command-line contract of every axiomcc binary: typed
// `--key=value` flag declarations, every one parsed before any work, a
// paren-aware list splitter, and run_cli's exit codes.
#pragma once

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace axiomcc {

/// A command line the binary cannot read (run_cli exits 2 on it).
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The values a numeric flag takes: the closed range [min, max] of finite
/// numbers, so every bound rejects infinities and NaN. Error messages
/// describe it as "a <adjective> integer<suffix>".
struct Bound {
  double min;
  double max;
  const char* adjective;  ///< "positive", or "" for none
  const char* suffix;     ///< " in [0, 1)", or "" for none

  static constexpr double kMax = std::numeric_limits<double>::max();
  static const Bound kAny;
  static const Bound kNonNegative;
  static const Bound kPositive;
  static const Bound kFraction;  ///< [0, 1), e.g. a loss rate
};
inline constexpr Bound Bound::kAny{-kMax, kMax, "", ""};
inline constexpr Bound Bound::kNonNegative{0.0, kMax, "non-negative", ""};
inline constexpr Bound Bound::kPositive{
    std::numeric_limits<double>::denorm_min(), kMax, "positive", ""};
inline constexpr Bound Bound::kFraction{0.0, 0x1.fffffffffffffp-1, "",
                                        " in [0, 1)"};

/// One flag a binary reads: its name (without the leading "--"), its kind,
/// its default as the text a user would type, and its bound, e.g.
/// `{"steps", Flag::kInt, "4000", Bound::kPositive}`; `{"csv"}` is a
/// switch. An empty default is no value, except for kText ("") and kList
/// (no items): read such a flag only when has() says it was given.
struct Flag {
  enum Kind {
    kSwitch,  ///< `--name` alone; a value is a usage error
    kText,    ///< any text
    kChoice,  ///< one of `choices`
    kInt,
    kReal,
    kList,   ///< a comma list, split only outside parentheses, so
             ///< "aimd(1,0.5),vegas(2,4)" is two items; empty items drop
    kReals,  ///< a comma list of at least one real number
  };

  std::string name;
  Kind kind = kSwitch;
  std::string fallback = "";
  Bound bound = Bound::kAny;  ///< of kInt, kReal and every kReals item
  std::vector<std::string> choices = {};

  /// The standard --jobs=N worker count (default 0: see get_jobs), at most
  /// the 1024 workers a TaskPool takes.
  static Flag jobs() {
    return {"jobs", kInt, "0", {0.0, 1024.0, "", " in [0, 1024]"}};
  }
};

/// Parses `--key=value` / `--flag` arguments against the binary's flag
/// declarations; a value flag given as `--key` alone takes its default
/// (`--record` records into --out). The constructor parses every declared
/// flag, given or defaulted: an undeclared flag, a positional argument
/// where the binary takes none, or a value its declaration rejects is a
/// UsageError naming it, thrown before any work. A malformed default is a
/// contract failure, and so is a read of an undeclared name, of a flag as
/// another kind, or of a flag with no value.
class ArgParser {
 public:
  enum class Positionals { kRejected, kAccepted };

  ArgParser(int argc, const char* const* argv, std::vector<Flag> flags,
            Positionals positionals = Positionals::kRejected);

  /// True when `--name` was given (with or without a value); the read of a
  /// switch.
  [[nodiscard]] bool has(const std::string& name) const {
    return find(name).given;
  }
  /// A kText or kChoice flag.
  [[nodiscard]] const std::string& get_text(const std::string& name) const {
    return get<std::string>(name, Flag::kText);
  }
  [[nodiscard]] long get_int(const std::string& name) const {
    return get<long>(name, Flag::kInt);
  }
  [[nodiscard]] double get_double(const std::string& name) const {
    return get<double>(name, Flag::kReal);
  }
  [[nodiscard]] const std::vector<std::string>& get_list(
      const std::string& name) const {
    return get<std::vector<std::string>>(name, Flag::kList);
  }
  [[nodiscard]] const std::vector<double>& get_doubles(
      const std::string& name) const {
    return get<std::vector<double>>(name, Flag::kReals);
  }

  /// Resolved worker count for Flag::jobs(): an explicit N > 0 wins;
  /// otherwise the AXIOMCC_JOBS environment override (which is what makes
  /// `ctest -j` safe — the suite pins it low so concurrently running
  /// benches don't oversubscribe the machine), else hardware concurrency.
  /// Always >= 1; 1 selects the serial path everywhere.
  [[nodiscard]] long get_jobs() const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  using Value = std::variant<std::monostate, std::string, long, double,
                             std::vector<std::string>, std::vector<double>>;
  struct Entry {
    Flag flag;
    Value value = {};
    bool given = false;
  };

  /// `text` parsed as the value of `flag`; a UsageError when it does not
  /// fit.
  static Value parse(const Flag& flag, const std::string& text);
  [[nodiscard]] const Entry& find(const std::string& name) const;
  /// The value of `name`, declared as `kind` (kText also reads kChoice).
  [[nodiscard]] const Value& value(const std::string& name,
                                   Flag::Kind kind) const;
  template <typename T>
  [[nodiscard]] const T& get(const std::string& name, Flag::Kind kind) const {
    return std::get<T>(value(name, kind));
  }

  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

/// Runs a binary's `body` and returns its exit code: on an escaping
/// exception, `error: <what>` on stderr and exit 2 for a UsageError, 1 for
/// anything else.
int run_cli(const std::function<int()>& body);

}  // namespace axiomcc
