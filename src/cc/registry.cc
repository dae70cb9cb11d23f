#include "cc/registry.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "cc/aimd.h"
#include "cc/bbr_like.h"
#include "cc/binomial.h"
#include "cc/cautious_probe.h"
#include "cc/cubic.h"
#include "cc/highspeed.h"
#include "cc/illinois.h"
#include "cc/mimd.h"
#include "cc/pcc.h"
#include "cc/presets.h"
#include "cc/robust_aimd.h"
#include "cc/vegas.h"
#include "cc/veno.h"
#include "cc/westwood.h"

namespace axiomcc::cc {

namespace {

struct ParsedSpec {
  std::string name;
  std::vector<double> args;
};

[[nodiscard]] std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

[[nodiscard]] std::string strip(const std::string& s) {
  const auto first = s.find_first_not_of(" \t");
  if (first == std::string::npos) return {};
  const auto last = s.find_last_not_of(" \t");
  return s.substr(first, last - first + 1);
}

/// Hard limits against adversarial input (specs arrive from CLIs and
/// config files): a spec this long or this argument-heavy is never valid,
/// so reject it before any quadratic substring work or unbounded vectors.
constexpr std::size_t kMaxSpecLength = 256;
constexpr std::size_t kMaxSpecArgs = 16;

[[nodiscard]] ParsedSpec parse_spec(const std::string& spec) {
  if (spec.size() > kMaxSpecLength) {
    throw std::invalid_argument("protocol spec longer than " +
                                std::to_string(kMaxSpecLength) + " chars");
  }
  const std::string trimmed = strip(spec);
  if (trimmed.empty()) throw std::invalid_argument("empty protocol spec");

  const auto open = trimmed.find('(');
  if (open == std::string::npos) {
    if (trimmed.find(')') != std::string::npos) {
      throw std::invalid_argument("unbalanced ')' in protocol spec: " + spec);
    }
    return {to_lower(trimmed), {}};
  }
  if (trimmed.back() != ')') {
    throw std::invalid_argument("protocol spec missing ')': " + spec);
  }
  // Exactly one balanced pair: no '(' in the argument list, and the only
  // ')' is the final character.
  if (trimmed.find('(', open + 1) != std::string::npos ||
      trimmed.find(')') != trimmed.size() - 1) {
    throw std::invalid_argument("unbalanced parentheses in protocol spec: " +
                                spec);
  }

  ParsedSpec out;
  out.name = to_lower(strip(trimmed.substr(0, open)));
  std::string args = trimmed.substr(open + 1, trimmed.size() - open - 2);
  if (!strip(args).empty()) {
    std::size_t start = 0;
    while (start <= args.size()) {
      const auto comma = args.find(',', start);
      const std::string token =
          strip(args.substr(start, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - start));
      if (token.empty()) {
        throw std::invalid_argument("empty argument in protocol spec: " + spec);
      }
      if (out.args.size() == kMaxSpecArgs) {
        throw std::invalid_argument("more than " +
                                    std::to_string(kMaxSpecArgs) +
                                    " arguments in protocol spec: " + spec);
      }
      std::size_t pos = 0;
      double value = 0.0;
      try {
        value = std::stod(token, &pos);
      } catch (const std::exception&) {
        throw std::invalid_argument("malformed number '" + token +
                                    "' in protocol spec: " + spec);
      }
      if (pos != token.size()) {
        throw std::invalid_argument("malformed number '" + token +
                                    "' in protocol spec: " + spec);
      }
      // stod accepts "nan"/"inf" literals; no protocol parameter is
      // meaningfully non-finite, and letting one through poisons every
      // window computation downstream.
      if (!std::isfinite(value)) {
        throw std::invalid_argument("non-finite argument '" + token +
                                    "' in protocol spec: " + spec);
      }
      out.args.push_back(value);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return out;
}

void require_arity(const ParsedSpec& s, std::size_t arity) {
  if (s.args.size() != arity) {
    throw std::invalid_argument("protocol '" + s.name + "' expects " +
                                std::to_string(arity) + " argument(s), got " +
                                std::to_string(s.args.size()));
  }
}

/// Upper bound on a filter length in steps: far beyond any run's horizon,
/// and small enough that the conversion to std::size_t is exact.
constexpr double kMaxFilterSteps = 1e6;

/// `value` as a filter length: a whole number in [1, kMaxFilterSteps].
[[nodiscard]] std::size_t filter_steps(const ParsedSpec& s, double value,
                                       const char* what) {
  if (!(value >= 1.0 && value <= kMaxFilterSteps) ||
      value != std::floor(value)) {
    std::ostringstream os;
    os << "protocol '" << s.name << "' argument " << what
       << " must be a whole number in [1, " << kMaxFilterSteps << "], got "
       << value;
    throw std::invalid_argument(os.str());
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

std::unique_ptr<Protocol> make_protocol(const std::string& spec) {
  const ParsedSpec s = parse_spec(spec);

  // Presets (no arguments).
  if (s.name == "reno") {
    require_arity(s, 0);
    return presets::reno();
  }
  if (s.name == "scalable") {
    require_arity(s, 0);
    return presets::scalable();
  }
  if (s.name == "cubic-linux") {
    require_arity(s, 0);
    return presets::cubic_linux();
  }

  // Parameterized families.
  if (s.name == "aimd") {
    require_arity(s, 2);
    return std::make_unique<Aimd>(s.args[0], s.args[1]);
  }
  if (s.name == "mimd") {
    require_arity(s, 2);
    return std::make_unique<Mimd>(s.args[0], s.args[1]);
  }
  if (s.name == "bin") {
    require_arity(s, 4);
    return std::make_unique<Binomial>(s.args[0], s.args[1], s.args[2], s.args[3]);
  }
  if (s.name == "cubic") {
    require_arity(s, 2);
    return std::make_unique<Cubic>(s.args[0], s.args[1]);
  }
  if (s.name == "robust_aimd" || s.name == "robust-aimd") {
    require_arity(s, 3);
    return std::make_unique<RobustAimd>(s.args[0], s.args[1], s.args[2]);
  }
  if (s.name == "vegas") {
    require_arity(s, 2);
    return std::make_unique<VegasLike>(s.args[0], s.args[1]);
  }
  if (s.name == "pcc") {
    if (s.args.empty()) return std::make_unique<PccAllegro>();
    require_arity(s, 2);
    return std::make_unique<PccAllegro>(s.args[0], s.args[1]);
  }
  if (s.name == "illinois") {
    require_arity(s, 0);
    return std::make_unique<Illinois>();
  }
  if (s.name == "veno") {
    if (s.args.empty()) return std::make_unique<VenoLike>();
    require_arity(s, 2);
    return std::make_unique<VenoLike>(s.args[0], s.args[1]);
  }
  if (s.name == "highspeed") {
    if (s.args.empty()) return std::make_unique<HighSpeed>();
    require_arity(s, 3);
    return std::make_unique<HighSpeed>(s.args[0], s.args[1], s.args[2]);
  }
  if (s.name == "westwood") {
    if (s.args.empty()) return std::make_unique<WestwoodLike>();
    require_arity(s, 2);
    return std::make_unique<WestwoodLike>(s.args[0], s.args[1]);
  }
  if (s.name == "bbr") {
    if (s.args.empty()) return std::make_unique<BbrLike>();
    require_arity(s, 2);
    return std::make_unique<BbrLike>(filter_steps(s, s.args[0], "bw_window"),
                                     filter_steps(s, s.args[1], "rtt_window"));
  }
  if (s.name == "cautious") {
    if (s.args.empty()) return std::make_unique<CautiousProbe>();
    require_arity(s, 2);
    return std::make_unique<CautiousProbe>(s.args[0], s.args[1]);
  }

  throw std::invalid_argument("unknown protocol name: " + s.name);
}

std::vector<std::string> known_protocol_names() {
  return {"aimd",     "mimd",      "bin",      "cubic",    "robust_aimd",
          "vegas",    "pcc",       "bbr",      "cautious", "highspeed",
          "westwood", "illinois",  "veno",     "reno",     "scalable",
          "cubic-linux"};
}

}  // namespace axiomcc::cc
