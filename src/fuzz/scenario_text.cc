#include "fuzz/scenario_text.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cc/registry.h"
#include "engine/topology.h"
#include "engine/workload.h"

namespace axiomcc::fuzz {

namespace {

constexpr const char* kHeader = "axiomcc-scenario v1";

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              why);
}

using LossKind = fluid::LossSpec::Kind;

[[nodiscard]] const char* loss_kind_name(LossKind kind) {
  switch (kind) {
    case LossKind::kNone: return "none";
    case LossKind::kConstant: return "constant";
    case LossKind::kBernoulli: return "bernoulli";
    case LossKind::kGilbertElliott: return "gilbert";
    case LossKind::kStorm: return "storm";
  }
  return "none";
}

/// Splits a line on single spaces; no empty tokens (the serializer never
/// emits doubled spaces, and hand-written files get them collapsed).
[[nodiscard]] std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream in(line);
  while (in >> token) out.push_back(token);
  return out;
}

[[nodiscard]] double parse_num(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &pos);
  } catch (const std::exception&) {
    fail(line, "malformed number '" + token + "'");
  }
  if (pos != token.size()) fail(line, "malformed number '" + token + "'");
  if (!std::isfinite(value)) fail(line, "non-finite number '" + token + "'");
  return value;
}

[[nodiscard]] long parse_long(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  long value = 0;
  try {
    value = std::stol(token, &pos);
  } catch (const std::exception&) {
    fail(line, "malformed integer '" + token + "'");
  }
  if (pos != token.size()) fail(line, "malformed integer '" + token + "'");
  return value;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& token,
                                      std::size_t line) {
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(token, &pos);
  } catch (const std::exception&) {
    fail(line, "malformed seed '" + token + "'");
  }
  if (pos != token.size()) fail(line, "malformed seed '" + token + "'");
  return static_cast<std::uint64_t>(value);
}

void append_schedule(std::string& out, const char* directive,
                     const fluid::Schedule& schedule) {
  for (const fluid::Schedule::Point& p : schedule.points) {
    out += directive;
    out += ' ';
    out += std::to_string(p.at);
    out += ' ';
    out += format_double(p.scale);
    out += '\n';
  }
}

}  // namespace

std::string format_double(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;  // unreachable: %.17g always round-trips a finite double
}

std::string serialize_scenario(const ScenarioDesc& desc) {
  std::string out;
  out += kHeader;
  out += '\n';
  out += "link " + format_double(desc.bandwidth_mbps) + ' ' +
         format_double(desc.rtt_ms) + ' ' + format_double(desc.buffer_mss) +
         '\n';
  out += "steps " + std::to_string(desc.steps) + '\n';
  out += "window " + format_double(desc.min_window_mss) + ' ' +
         format_double(desc.max_window_mss) + '\n';
  out += "tail " + format_double(desc.tail_fraction) + '\n';
  out += "seed " + std::to_string(desc.seed) + '\n';
  // The execution axis is emitted only when non-default, so every pre-axis
  // corpus file still round-trips byte-identically.
  if (desc.aggregate_trace) out += "trace aggregate\n";
  if (desc.topology_bottlenecks > 0) {
    out += "topology parking-lot " + std::to_string(desc.topology_bottlenecks) +
           '\n';
  }
  switch (desc.workload.kind) {
    case engine::WorkloadKind::kNone:
      break;
    case engine::WorkloadKind::kIncast:
      out += "workload incast " + std::to_string(desc.workload.flows) + ' ' +
             format_double(desc.workload.spread_steps) + '\n';
      break;
    case engine::WorkloadKind::kOnOffHeavyTail:
      out += "workload onoff " + std::to_string(desc.workload.flows) + ' ' +
             format_double(desc.workload.mean_on_steps) + ' ' +
             format_double(desc.workload.mean_off_steps) + ' ' +
             format_double(desc.workload.alpha) + '\n';
      break;
  }
  for (const SenderDesc& s : desc.senders) {
    if (s.count > 1) {
      out += "senders " + std::to_string(s.count) + ' ';
    } else {
      out += "sender ";
    }
    out += format_double(s.initial_window_mss) + ' ' +
           format_double(s.start_step) + ' ' + format_double(s.stop_step) +
           ' ' + s.protocol + '\n';
  }
  out += "loss ";
  out += loss_kind_name(desc.loss.kind);
  switch (desc.loss.kind) {
    case LossKind::kNone:
      break;
    case LossKind::kConstant:
      out += ' ' + format_double(desc.loss.rate);
      break;
    case LossKind::kBernoulli:
      out += ' ' + format_double(desc.loss.prob) + ' ' +
             format_double(desc.loss.rate);
      break;
    case LossKind::kGilbertElliott:
      out += ' ' + format_double(desc.loss.p_gb) + ' ' +
             format_double(desc.loss.p_bg) + ' ' +
             format_double(desc.loss.good_rate) + ' ' +
             format_double(desc.loss.bad_rate);
      break;
    case LossKind::kStorm:
      out += ' ' + std::to_string(desc.loss.start) + ' ' +
             std::to_string(desc.loss.end) + ' ' +
             format_double(desc.loss.p_gb) + ' ' +
             format_double(desc.loss.p_bg) + ' ' +
             format_double(desc.loss.good_rate) + ' ' +
             format_double(desc.loss.bad_rate);
      break;
  }
  out += '\n';
  append_schedule(out, "bw", desc.bandwidth_scale);
  append_schedule(out, "rtt", desc.rtt_scale);
  if (!desc.expect.empty()) {
    out += "expect " + desc.expect.outcome;
    if (!desc.expect.detail.empty()) out += ' ' + desc.expect.detail;
    out += '\n';
  }
  return out;
}

ScenarioDesc parse_scenario(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  // The header must be the first non-comment, non-blank line (checked-in
  // corpus entries carry a triage comment block above it).
  bool have_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    have_header = line == kHeader;
    break;
  }
  if (!have_header) {
    throw std::invalid_argument(
        "scenario missing header (expected first content line '" +
        std::string(kHeader) + "')");
  }

  ScenarioDesc desc;
  desc.senders.clear();
  std::map<std::string, bool> seen;
  const auto once = [&seen, &line_no](const std::string& directive) {
    if (seen[directive]) fail(line_no, "duplicate '" + directive + "' line");
    seen[directive] = true;
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string& directive = tok[0];
    const auto require_argc = [&](std::size_t argc) {
      if (tok.size() != argc + 1) {
        fail(line_no, "'" + directive + "' expects " + std::to_string(argc) +
                          " value(s), got " + std::to_string(tok.size() - 1));
      }
    };

    if (directive == "link") {
      once("link");
      require_argc(3);
      desc.bandwidth_mbps = parse_num(tok[1], line_no);
      desc.rtt_ms = parse_num(tok[2], line_no);
      desc.buffer_mss = parse_num(tok[3], line_no);
    } else if (directive == "steps") {
      once("steps");
      require_argc(1);
      desc.steps = parse_long(tok[1], line_no);
    } else if (directive == "window") {
      once("window");
      require_argc(2);
      desc.min_window_mss = parse_num(tok[1], line_no);
      desc.max_window_mss = parse_num(tok[2], line_no);
    } else if (directive == "tail") {
      once("tail");
      require_argc(1);
      desc.tail_fraction = parse_num(tok[1], line_no);
    } else if (directive == "seed") {
      once("seed");
      require_argc(1);
      desc.seed = parse_u64(tok[1], line_no);
    } else if (directive == "sender" || directive == "senders") {
      // The protocol spec is the rest of the line (specs contain commas and
      // parens, never spaces the serializer cares about). "senders" carries
      // a leading cohort count.
      const bool cohort = directive == "senders";
      const std::size_t base = cohort ? 2 : 1;
      if (tok.size() < base + 4) {
        fail(line_no, cohort ? "'senders' expects <count> <init_w> <start> "
                               "<stop> <protocol>"
                             : "'sender' expects <init_w> <start> <stop> "
                               "<protocol>");
      }
      SenderDesc s;
      if (cohort) s.count = parse_long(tok[1], line_no);
      s.initial_window_mss = parse_num(tok[base], line_no);
      s.start_step = parse_num(tok[base + 1], line_no);
      s.stop_step = parse_num(tok[base + 2], line_no);
      s.protocol = tok[base + 3];
      for (std::size_t i = base + 4; i < tok.size(); ++i) {
        s.protocol += " " + tok[i];
      }
      desc.senders.push_back(std::move(s));
    } else if (directive == "trace") {
      once("trace");
      require_argc(1);
      if (tok[1] == "aggregate") {
        desc.aggregate_trace = true;
      } else if (tok[1] == "full") {
        desc.aggregate_trace = false;
      } else {
        fail(line_no,
             "unknown trace detail '" + tok[1] + "' (expected full|aggregate)");
      }
    } else if (directive == "exec") {
      once("exec");
      require_argc(1);
      // The fluid backend picks its step loop from the run's shape; the
      // retired execution modes still parse (as no-ops) so older corpus
      // files replay unchanged.
      if (tok[1] != "batch" && tok[1] != "scalar") {
        fail(line_no,
             "unknown exec mode '" + tok[1] + "' (expected scalar|batch)");
      }
    } else if (directive == "topology") {
      once("topology");
      require_argc(2);
      if (tok[1] != "parking-lot") {
        fail(line_no,
             "unknown topology kind '" + tok[1] + "' (expected parking-lot)");
      }
      desc.topology_bottlenecks =
          static_cast<int>(parse_long(tok[2], line_no));
    } else if (directive == "workload") {
      once("workload");
      if (tok.size() < 2) fail(line_no, "'workload' expects a kind");
      if (tok[1] == "incast") {
        require_argc(3);
        desc.workload.kind = engine::WorkloadKind::kIncast;
        desc.workload.flows = parse_long(tok[2], line_no);
        desc.workload.spread_steps = parse_num(tok[3], line_no);
      } else if (tok[1] == "onoff") {
        require_argc(5);
        desc.workload.kind = engine::WorkloadKind::kOnOffHeavyTail;
        desc.workload.flows = parse_long(tok[2], line_no);
        desc.workload.mean_on_steps = parse_num(tok[3], line_no);
        desc.workload.mean_off_steps = parse_num(tok[4], line_no);
        desc.workload.alpha = parse_num(tok[5], line_no);
      } else {
        fail(line_no,
             "unknown workload kind '" + tok[1] + "' (expected incast|onoff)");
      }
    } else if (directive == "loss") {
      once("loss");
      if (tok.size() < 2) fail(line_no, "'loss' expects a kind");
      const std::string& kind = tok[1];
      if (kind == "none") {
        require_argc(1);
        desc.loss.kind = LossKind::kNone;
      } else if (kind == "constant") {
        require_argc(2);
        desc.loss.kind = LossKind::kConstant;
        desc.loss.rate = parse_num(tok[2], line_no);
      } else if (kind == "bernoulli") {
        require_argc(3);
        desc.loss.kind = LossKind::kBernoulli;
        desc.loss.prob = parse_num(tok[2], line_no);
        desc.loss.rate = parse_num(tok[3], line_no);
      } else if (kind == "gilbert") {
        require_argc(5);
        desc.loss.kind = LossKind::kGilbertElliott;
        desc.loss.p_gb = parse_num(tok[2], line_no);
        desc.loss.p_bg = parse_num(tok[3], line_no);
        desc.loss.good_rate = parse_num(tok[4], line_no);
        desc.loss.bad_rate = parse_num(tok[5], line_no);
      } else if (kind == "storm") {
        require_argc(7);
        desc.loss.kind = LossKind::kStorm;
        desc.loss.start = parse_long(tok[2], line_no);
        desc.loss.end = parse_long(tok[3], line_no);
        desc.loss.p_gb = parse_num(tok[4], line_no);
        desc.loss.p_bg = parse_num(tok[5], line_no);
        desc.loss.good_rate = parse_num(tok[6], line_no);
        desc.loss.bad_rate = parse_num(tok[7], line_no);
      } else {
        fail(line_no, "unknown loss kind '" + kind +
                          "' (expected none|constant|bernoulli|gilbert|storm)");
      }
    } else if (directive == "bw" || directive == "rtt") {
      require_argc(2);
      fluid::Schedule& schedule =
          directive == "bw" ? desc.bandwidth_scale : desc.rtt_scale;
      schedule.points.push_back(
          {parse_long(tok[1], line_no), parse_num(tok[2], line_no)});
    } else if (directive == "expect") {
      once("expect");
      if (tok.size() < 2 || tok.size() > 3) {
        fail(line_no, "'expect' expects <outcome> [<detail>]");
      }
      desc.expect.outcome = tok[1];
      desc.expect.detail = tok.size() == 3 ? tok[2] : "";
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  validate_scenario(desc);
  return desc;
}

void validate_scenario(const ScenarioDesc& desc) {
  if (!(desc.bandwidth_mbps > 0.0) || !std::isfinite(desc.bandwidth_mbps)) {
    throw std::invalid_argument("link bandwidth must be positive, got " +
                                format_double(desc.bandwidth_mbps));
  }
  if (!(desc.rtt_ms > 0.0) || !std::isfinite(desc.rtt_ms)) {
    throw std::invalid_argument("link RTT must be positive, got " +
                                format_double(desc.rtt_ms));
  }
  if (desc.buffer_mss < 0.0 || !std::isfinite(desc.buffer_mss)) {
    throw std::invalid_argument("link buffer must be >= 0, got " +
                                format_double(desc.buffer_mss));
  }
  if (desc.steps <= 0) {
    throw std::invalid_argument("steps must be positive, got " +
                                std::to_string(desc.steps));
  }
  if (desc.min_window_mss < 0.0 ||
      desc.max_window_mss < desc.min_window_mss) {
    throw std::invalid_argument("window bounds must satisfy 0 <= min <= max");
  }
  if (!(desc.tail_fraction > 0.0 && desc.tail_fraction < 1.0)) {
    throw std::invalid_argument("tail fraction must be in (0, 1), got " +
                                format_double(desc.tail_fraction));
  }
  if (desc.senders.empty()) {
    throw std::invalid_argument("scenario needs at least one sender");
  }
  if (desc.topology_bottlenecks < 0 || desc.topology_bottlenecks > 16) {
    throw std::invalid_argument(
        "topology bottleneck count must be in [0, 16], got " +
        std::to_string(desc.topology_bottlenecks));
  }
  if (!desc.workload.empty() && desc.workload.flows > 256) {
    throw std::invalid_argument(
        "workload flow count must be at most 256, got " +
        std::to_string(desc.workload.flows));
  }
  engine::validate_workload(desc.workload);
  for (const SenderDesc& s : desc.senders) {
    if (s.initial_window_mss < 0.0 || !std::isfinite(s.initial_window_mss)) {
      throw std::invalid_argument("sender initial window must be >= 0");
    }
    if (s.start_step < 0.0 || !std::isfinite(s.start_step)) {
      throw std::invalid_argument("sender start step must be >= 0");
    }
    if (s.protocol.empty()) {
      throw std::invalid_argument("sender protocol spec is empty");
    }
    if (s.count < 1) {
      throw std::invalid_argument("sender cohort count must be >= 1, got " +
                                  std::to_string(s.count));
    }
  }
  engine::validate_loss(desc.loss);
  engine::validate_schedule(desc.bandwidth_scale, "bw");
  engine::validate_schedule(desc.rtt_scale, "rtt");
}

CompiledScenario compile_scenario(const ScenarioDesc& desc) {
  validate_scenario(desc);

  CompiledScenario out;
  out.spec.link = fluid::make_link_mbps(desc.bandwidth_mbps, desc.rtt_ms,
                                        desc.buffer_mss);
  out.spec.steps = desc.steps;
  out.spec.min_window_mss = desc.min_window_mss;
  out.spec.max_window_mss = desc.max_window_mss;
  out.spec.tail_fraction = desc.tail_fraction;
  out.spec.seed = desc.seed;

  const int bottlenecks = desc.topology_bottlenecks;
  if (bottlenecks > 0) {
    out.spec.topology.links.assign(static_cast<std::size_t>(bottlenecks),
                                   out.spec.link);
  }

  out.prototypes.reserve(desc.senders.size());
  for (std::size_t i = 0; i < desc.senders.size(); ++i) {
    const SenderDesc& s = desc.senders[i];
    out.prototypes.push_back(cc::make_protocol(s.protocol));
    // Parking-lot routes are derived from the slot index: the first slot is
    // the long flow over every bottleneck, later slots cross one each.
    std::vector<int> route;
    if (bottlenecks > 0) {
      if (i == 0) {
        route.resize(static_cast<std::size_t>(bottlenecks));
        for (int l = 0; l < bottlenecks; ++l) {
          route[static_cast<std::size_t>(l)] = l;
        }
      } else {
        route = {static_cast<int>((i - 1) % static_cast<std::size_t>(
                                                bottlenecks))};
      }
    }
    out.spec.senders.push_back(engine::SenderSlot{
        out.prototypes.back().get(), s.initial_window_mss, s.start_step,
        s.stop_step, s.count, std::move(route)});
  }

  out.spec.workload = desc.workload;

  // The execution axis must not change what the oracle can see: an
  // aggregate trace tracks the whole population (fuzz scenarios are small,
  // so the estimators keep reading every sender's series and classify
  // exactly as they would a full trace). The fluid backend runs at jobs=1 —
  // already byte-identical to any job count, and keeping run_scenario pure
  // for the fuzz loop's own fan-out.
  if (desc.aggregate_trace) {
    out.spec.trace_detail = fluid::TraceDetail::kAggregate;
    // Workload generators change the run's population; track the expanded
    // count so the oracle still reads every sender's series.
    long total = 0;
    for (const engine::SenderSlot& slot : engine::expand_workload(out.spec)) {
      total += slot.count;
    }
    out.spec.tracked_senders = static_cast<int>(std::max<long>(total, 1));
  }
  out.spec.jobs = 1;

  out.spec.bandwidth_scale = desc.bandwidth_scale;
  out.spec.rtt_scale = desc.rtt_scale;
  out.spec.loss = desc.loss;

  return out;
}

}  // namespace axiomcc::fuzz
