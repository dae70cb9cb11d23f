// cli.h — minimal `--key=value` argument parsing for examples and benches.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace axiomcc {

/// Parses `--key=value` / `--flag` style arguments. Positional arguments are
/// collected in order. Every key is kept; callers decide what is valid (the
/// bench harness rejects keys its bench does not read).
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Returns the value for `--key=value`, or nullopt when absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Returns the string value or `fallback` when absent.
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;

  /// Returns the value parsed as double, or `fallback` when absent.
  /// Throws std::invalid_argument on a malformed number.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;

  /// Returns the value parsed as a non-negative integer, or `fallback`.
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;

  /// True when `--key` was given (with or without a value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Resolved worker count for the standard `--jobs=N` flag: an explicit
  /// N > 0 wins; otherwise the AXIOMCC_JOBS environment override (which is
  /// what makes `ctest -j` safe — the suite pins it low so concurrently
  /// running benches don't oversubscribe the machine), else hardware
  /// concurrency. Always >= 1; 1 selects the serial path everywhere.
  [[nodiscard]] long get_jobs() const;

  /// Every `--key[=value]` given, by key (a bare flag maps to "").
  [[nodiscard]] const std::map<std::string, std::string>& flags() const {
    return values_;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace axiomcc
