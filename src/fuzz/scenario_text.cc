#include "fuzz/scenario_text.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/topology.h"
#include "util/check.h"

namespace axiomcc::fuzz {

namespace {

constexpr const char* kHeaderV2 = "axiomcc-scenario v2";

[[noreturn]] void fail(std::size_t line, const std::string& why) {
  throw std::invalid_argument("scenario line " + std::to_string(line) + ": " +
                              why);
}

[[noreturn]] void reject(const std::string& why) {
  throw std::invalid_argument(why);
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

/// A link in the engine's units: bandwidth (MSS/s), one-way delay (s),
/// buffer (MSS). The timeout RTT is not part of the format: it keeps its
/// natural default.
[[nodiscard]] std::string link_fields(const fluid::LinkParams& link) {
  AXIOMCC_EXPECTS_MSG(link.timeout_rtt.value() <= 0.0,
                      "a custom timeout RTT has no text form");
  return format_double(link.bandwidth.mss_per_sec()) + ' ' +
         format_double(link.propagation_delay.value()) + ' ' +
         format_double(link.buffer_mss);
}

/// Reads the link_fields of a `link` or `topology-link` line.
[[nodiscard]] fluid::LinkParams parse_link(const std::vector<std::string>& tok,
                                           std::size_t line) {
  if (tok.size() != 4) {
    fail(line, "'" + tok[0] +
                   "' expects <MSS/s> <one-way delay s> <buffer MSS>");
  }
  fluid::LinkParams link;
  link.bandwidth = Bandwidth::from_mss_per_sec(parse_num(tok[1], line));
  link.propagation_delay = Seconds(parse_num(tok[2], line));
  link.buffer_mss = parse_num(tok[3], line);
  return link;
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

engine::ScenarioSpec default_scenario() {
  engine::ScenarioSpec spec;
  spec.steps = 400;
  spec.senders = {sender_slot("reno")};
  return spec;
}

engine::SenderSlot sender_slot(std::string protocol, double initial_window_mss,
                               double start_step, double stop_step,
                               long count) {
  engine::SenderSlot slot;
  slot.protocol = std::move(protocol);
  slot.initial_window_mss = initial_window_mss;
  slot.start_step = start_step;
  slot.stop_step = stop_step;
  slot.count = count;
  return slot;
}

void route_parking_lot(engine::ScenarioSpec& spec) {
  const int k = spec.topology.num_links();
  AXIOMCC_EXPECTS(k >= 1);
  for (std::size_t i = 0; i < spec.senders.size(); ++i) {
    std::vector<int>& route = spec.senders[i].route;
    if (i == 0) {
      route.resize(static_cast<std::size_t>(k));
      for (int l = 0; l < k; ++l) route[static_cast<std::size_t>(l)] = l;
    } else {
      route = {static_cast<int>((i - 1) % static_cast<std::size_t>(k))};
    }
  }
}

std::string format_double(double v) {
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  return buf;  // unreachable: %.17g always round-trips a finite double
}

std::string serialize_scenario(const engine::ScenarioSpec& spec,
                               const ExpectDesc& expect) {
  std::string out;
  out += kHeaderV2;
  out += '\n';
  out += "link " + link_fields(spec.link) + '\n';
  out += "steps " + std::to_string(spec.steps) + '\n';
  out += "window " + format_double(spec.min_window_mss) + ' ' +
         format_double(spec.max_window_mss) + '\n';
  out += "tail " + format_double(spec.tail_fraction) + '\n';
  out += "seed " + std::to_string(spec.seed) + '\n';
  if (spec.trace_detail == fluid::TraceDetail::kAggregate) {
    out += "trace aggregate\n";
  }
  for (const fluid::LinkParams& link : spec.topology.links) {
    out += "topology-link " + link_fields(link) + '\n';
  }
  switch (spec.workload.kind) {
    case engine::WorkloadKind::kNone:
      break;
    case engine::WorkloadKind::kIncast:
      out += "workload incast " + std::to_string(spec.workload.flows) + ' ' +
             format_double(spec.workload.spread_steps) + '\n';
      break;
    case engine::WorkloadKind::kOnOffHeavyTail:
      out += "workload onoff " + std::to_string(spec.workload.flows) + ' ' +
             format_double(spec.workload.mean_on_steps) + ' ' +
             format_double(spec.workload.mean_off_steps) + ' ' +
             format_double(spec.workload.alpha) + '\n';
      break;
  }
  for (const engine::SenderSlot& s : spec.senders) {
    AXIOMCC_EXPECTS_MSG(!s.protocol.empty(),
                        "only slots that name a protocol spec serialize");
    if (s.count > 1) {
      out += "senders " + std::to_string(s.count) + ' ';
    } else {
      out += "sender ";
    }
    out += format_double(s.initial_window_mss) + ' ' +
           format_double(s.start_step) + ' ' + format_double(s.stop_step) +
           ' ' + s.protocol + '\n';
    if (!s.route.empty()) {
      out += "route";
      for (const int link : s.route) out += ' ' + std::to_string(link);
      out += '\n';
    }
  }
  const fluid::LossSpec& loss = spec.loss;
  out += "loss ";
  out += loss_kind_name(loss.kind);
  switch (loss.kind) {
    case LossKind::kNone:
      break;
    case LossKind::kConstant:
      out += ' ' + format_double(loss.rate);
      break;
    case LossKind::kBernoulli:
      out += ' ' + format_double(loss.prob) + ' ' + format_double(loss.rate);
      break;
    case LossKind::kGilbertElliott:
      out += ' ' + format_double(loss.p_gb) + ' ' + format_double(loss.p_bg) +
             ' ' + format_double(loss.good_rate) + ' ' +
             format_double(loss.bad_rate);
      break;
    case LossKind::kStorm:
      out += ' ' + std::to_string(loss.start) + ' ' +
             std::to_string(loss.end) + ' ' + format_double(loss.p_gb) + ' ' +
             format_double(loss.p_bg) + ' ' + format_double(loss.good_rate) +
             ' ' + format_double(loss.bad_rate);
      break;
  }
  out += '\n';
  append_schedule(out, "bw", spec.bandwidth_scale);
  append_schedule(out, "rtt", spec.rtt_scale);
  if (!expect.empty()) {
    out += "expect " + expect.outcome;
    if (!expect.detail.empty()) out += ' ' + expect.detail;
    out += '\n';
  }
  return out;
}

engine::ScenarioSpec parse_scenario(const std::string& text,
                                    ExpectDesc* expect) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;

  // The header must be the first non-comment, non-blank line (checked-in
  // corpus entries carry a triage comment block above it).
  bool header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    header = line == kHeaderV2;
    break;
  }
  if (!header) {
    throw std::invalid_argument(
        "scenario missing header (expected first content line '" +
        std::string(kHeaderV2) + "')");
  }

  engine::ScenarioSpec spec = default_scenario();
  spec.senders.clear();
  ExpectDesc parsed_expect;
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
      spec.link = parse_link(tok, line_no);
    } else if (directive == "steps") {
      once("steps");
      require_argc(1);
      spec.steps = parse_long(tok[1], line_no);
    } else if (directive == "window") {
      once("window");
      require_argc(2);
      spec.min_window_mss = parse_num(tok[1], line_no);
      spec.max_window_mss = parse_num(tok[2], line_no);
    } else if (directive == "tail") {
      once("tail");
      require_argc(1);
      spec.tail_fraction = parse_num(tok[1], line_no);
    } else if (directive == "seed") {
      once("seed");
      require_argc(1);
      spec.seed = parse_u64(tok[1], line_no);
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
      std::string protocol = tok[base + 3];
      for (std::size_t i = base + 4; i < tok.size(); ++i) {
        protocol += " " + tok[i];
      }
      spec.senders.push_back(sender_slot(
          std::move(protocol), parse_num(tok[base], line_no),
          parse_num(tok[base + 1], line_no), parse_num(tok[base + 2], line_no),
          cohort ? parse_long(tok[1], line_no) : 1));
    } else if (directive == "route") {
      if (spec.senders.empty()) {
        fail(line_no, "'route' must follow a sender line");
      }
      std::vector<int>& route = spec.senders.back().route;
      if (!route.empty()) fail(line_no, "second 'route' for one sender");
      if (tok.size() < 2) fail(line_no, "'route' expects link ids");
      for (std::size_t i = 1; i < tok.size(); ++i) {
        route.push_back(static_cast<int>(parse_long(tok[i], line_no)));
      }
    } else if (directive == "trace") {
      once("trace");
      require_argc(1);
      if (tok[1] == "aggregate") {
        spec.trace_detail = fluid::TraceDetail::kAggregate;
      } else if (tok[1] == "full") {
        spec.trace_detail = fluid::TraceDetail::kFull;
      } else {
        fail(line_no,
             "unknown trace detail '" + tok[1] + "' (expected full|aggregate)");
      }
    } else if (directive == "topology-link") {
      spec.topology.links.push_back(parse_link(tok, line_no));
    } else if (directive == "workload") {
      once("workload");
      if (tok.size() < 2) fail(line_no, "'workload' expects a kind");
      if (tok[1] == "incast") {
        require_argc(3);
        spec.workload.kind = engine::WorkloadKind::kIncast;
        spec.workload.flows = parse_long(tok[2], line_no);
        spec.workload.spread_steps = parse_num(tok[3], line_no);
      } else if (tok[1] == "onoff") {
        require_argc(5);
        spec.workload.kind = engine::WorkloadKind::kOnOffHeavyTail;
        spec.workload.flows = parse_long(tok[2], line_no);
        spec.workload.mean_on_steps = parse_num(tok[3], line_no);
        spec.workload.mean_off_steps = parse_num(tok[4], line_no);
        spec.workload.alpha = parse_num(tok[5], line_no);
      } else {
        fail(line_no,
             "unknown workload kind '" + tok[1] + "' (expected incast|onoff)");
      }
    } else if (directive == "loss") {
      once("loss");
      if (tok.size() < 2) fail(line_no, "'loss' expects a kind");
      const std::string& kind = tok[1];
      fluid::LossSpec& loss = spec.loss;
      if (kind == "none") {
        require_argc(1);
        loss.kind = LossKind::kNone;
      } else if (kind == "constant") {
        require_argc(2);
        loss.kind = LossKind::kConstant;
        loss.rate = parse_num(tok[2], line_no);
      } else if (kind == "bernoulli") {
        require_argc(3);
        loss.kind = LossKind::kBernoulli;
        loss.prob = parse_num(tok[2], line_no);
        loss.rate = parse_num(tok[3], line_no);
      } else if (kind == "gilbert") {
        require_argc(5);
        loss.kind = LossKind::kGilbertElliott;
        loss.p_gb = parse_num(tok[2], line_no);
        loss.p_bg = parse_num(tok[3], line_no);
        loss.good_rate = parse_num(tok[4], line_no);
        loss.bad_rate = parse_num(tok[5], line_no);
      } else if (kind == "storm") {
        require_argc(7);
        loss.kind = LossKind::kStorm;
        loss.start = parse_long(tok[2], line_no);
        loss.end = parse_long(tok[3], line_no);
        loss.p_gb = parse_num(tok[4], line_no);
        loss.p_bg = parse_num(tok[5], line_no);
        loss.good_rate = parse_num(tok[6], line_no);
        loss.bad_rate = parse_num(tok[7], line_no);
      } else {
        fail(line_no, "unknown loss kind '" + kind +
                          "' (expected none|constant|bernoulli|gilbert|storm)");
      }
    } else if (directive == "bw" || directive == "rtt") {
      require_argc(2);
      fluid::Schedule& schedule =
          directive == "bw" ? spec.bandwidth_scale : spec.rtt_scale;
      schedule.points.push_back(
          {parse_long(tok[1], line_no), parse_num(tok[2], line_no)});
    } else if (directive == "expect") {
      once("expect");
      if (tok.size() < 2 || tok.size() > 3) {
        fail(line_no, "'expect' expects <outcome> [<detail>]");
      }
      parsed_expect.outcome = tok[1];
      parsed_expect.detail = tok.size() == 3 ? tok[2] : "";
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  check_readable(spec);
  if (expect != nullptr) *expect = std::move(parsed_expect);
  return spec;
}

void check_readable(const engine::ScenarioSpec& spec) {
  engine::validate_horizon(spec.steps);
  if (!(spec.min_window_mss >= 0.0 &&
        spec.max_window_mss >= spec.min_window_mss)) {
    reject("window bounds must satisfy 0 <= min <= max");
  }
  if (!(spec.tail_fraction > 0.0 && spec.tail_fraction < 1.0)) {
    reject("tail fraction must be in (0, 1), got " +
           format_double(spec.tail_fraction));
  }
  if (spec.senders.empty()) reject("scenario needs at least one sender");
  // Caps on what one text file can ask a run to build.
  if (spec.topology.num_links() > 16) {
    reject("topology may have at most 16 links, got " +
           std::to_string(spec.topology.num_links()));
  }
  if (!spec.workload.empty() && spec.workload.flows > 256) {
    reject("workload flow count must be at most 256, got " +
           std::to_string(spec.workload.flows));
  }
  for (const engine::SenderSlot& s : spec.senders) {
    if (s.protocol.empty() || s.prototype != nullptr) {
      reject("every sender must name its protocol by spec string");
    }
    if (s.count < 1) {
      reject("sender cohort count must be >= 1, got " +
             std::to_string(s.count));
    }
    if (!(s.initial_window_mss >= 0.0 && std::isfinite(s.initial_window_mss))) {
      reject("sender initial window must be >= 0");
    }
    if (!(s.start_step >= 0.0 && std::isfinite(s.start_step))) {
      reject("sender start step must be >= 0");
    }
  }
  engine::validate_link(spec.link, "link");
  for (std::size_t l = 0; l < spec.topology.links.size(); ++l) {
    engine::validate_link(spec.topology.links[l],
                          "topology link " + std::to_string(l));
  }
  engine::validate_workload(spec.workload);
  engine::validate_loss(spec.loss);
  engine::validate_schedule(spec.bandwidth_scale, "bw");
  engine::validate_schedule(spec.rtt_scale, "rtt");
}

}  // namespace axiomcc::fuzz
