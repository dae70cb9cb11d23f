// cli.h — the one command-line contract of every axiomcc binary: strict
// `--key=value` flags, a paren-aware list splitter, and run_cli's exit codes.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace axiomcc {

/// A command line the binary cannot read (run_cli exits 2 on it).
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The values a numeric flag takes; kNonNegative and kPositive also
/// exclude infinities and NaN.
enum class Sign { kAny, kNonNegative, kPositive };

/// Parses `--key=value` / `--flag` style arguments against the flags the
/// binary reads. A flag it does not read, or a positional argument where
/// it takes none, is a UsageError naming it, thrown before any work runs.
class ArgParser {
 public:
  enum class Positionals { kRejected, kAccepted };

  /// `flags` are the names the binary reads, without the leading "--"; a
  /// name ending in '*' reads every flag with that prefix (bench_micro
  /// passes --benchmark_* on to google-benchmark).
  ArgParser(int argc, const char* const* argv, std::vector<std::string> flags,
            Positionals positionals = Positionals::kRejected);

  /// Returns the value for `--key=value`, or nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Returns the string value or `fallback` when absent.
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;

  /// Returns the value parsed as double, or `fallback` when absent. A
  /// malformed number, or one outside `sign`, is a UsageError naming the
  /// flag and its value.
  [[nodiscard]] double get_double(const std::string& key, double fallback,
                                  Sign sign = Sign::kAny) const;

  /// Returns the value parsed as an integer, or `fallback` when absent. A
  /// malformed integer, or one outside `sign`, is a UsageError naming the
  /// flag and its value.
  [[nodiscard]] long get_int(const std::string& key, long fallback,
                             Sign sign = Sign::kAny) const;

  /// get_list, each item parsed as get_double parses a value.
  [[nodiscard]] std::vector<double> get_doubles(const std::string& key,
                                                const std::string& fallback,
                                                Sign sign = Sign::kAny) const;

  /// The comma list in --key (`fallback` when absent), split only at
  /// commas outside parentheses, so "aimd(1,0.5),vegas(2,4)" is two items.
  /// Empty items are dropped; a stray ')' never takes the depth below 0.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key, const std::string& fallback) const;

  /// True when `--key` was given (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// True when the binary reads `--flag`.
  [[nodiscard]] bool reads(std::string_view flag) const;

  /// Resolved worker count for the standard `--jobs=N` flag: an explicit
  /// N > 0 wins; otherwise the AXIOMCC_JOBS environment override (which is
  /// what makes `ctest -j` safe — the suite pins it low so concurrently
  /// running benches don't oversubscribe the machine), else hardware
  /// concurrency. Always >= 1; 1 selects the serial path everywhere.
  [[nodiscard]] long get_jobs() const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::vector<std::string> reads_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Runs a binary's `body` and returns its exit code: on an escaping
/// exception, `error: <what>` on stderr and exit 2 for a UsageError, 1 for
/// anything else.
int run_cli(const std::function<int()>& body);

}  // namespace axiomcc
