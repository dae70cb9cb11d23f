// emulab.h — the Section 5.1 validation experiment, rebuilt on the
// packet-level simulator (our Emulab substitute; see DESIGN.md).
//
// The paper ran TCP Reno, TCP Cubic, and TCP Scalable on Emulab across
// n ∈ {2..4} connections, bandwidths {20,30,60,100} Mbps, buffers
// {10,100} MSS, and a fixed 42 ms RTT, then checked that for each metric the
// measured protocol hierarchy (worst → best) matches the theory's. We do the
// same on the dumbbell DES: homogeneous runs per protocol for efficiency /
// loss / fairness / convergence, plus a mixed run against Reno for
// TCP-friendliness, and a hierarchy-agreement verdict per metric.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cc/protocol.h"
#include "core/metric_point.h"

namespace axiomcc::exp {

struct EmulabGridConfig {
  std::vector<int> sender_counts{2, 3, 4};
  std::vector<double> bandwidths_mbps{20.0, 30.0, 60.0, 100.0};
  std::vector<std::size_t> buffers_packets{10, 100};
  double rtt_ms = 42.0;
  double duration_seconds = 30.0;
  double tail_fraction = 0.5;
  std::uint64_t seed = 7;
  /// Fan the (n, BW, buffer) cells out over a work-stealing pool
  /// (util/task_pool.h): <= 0 resolves via resolve_jobs (AXIOMCC_JOBS env,
  /// else hardware), 1 is the serial path. Each cell builds its own protocol
  /// instances, so results are bit-identical at every job count.
  long jobs = 0;
};

/// Measured scores of one protocol in one grid cell.
struct EmulabScores {
  std::string protocol;
  double efficiency = 0.0;        // bottleneck utilization of the tail
  double loss_rate = 0.0;         // mean tail loss rate across flows
  double fairness = 0.0;          // Jain-style min/max window ratio
  double convergence = 0.0;       // window stability around the tail mean
  double tcp_friendliness = 0.0;  // Reno's share in a mixed run
};

struct EmulabCell {
  int n = 0;
  double bandwidth_mbps = 0.0;
  std::size_t buffer_packets = 0;
  std::vector<EmulabScores> protocols;  // Reno, Cubic, Scalable
};

/// Runs the full grid. This is the repository's most expensive experiment;
/// pass a reduced config for quick runs.
[[nodiscard]] std::vector<EmulabCell> run_emulab_grid(
    const EmulabGridConfig& cfg);

/// Reno's share against (n−1) `proto` senders on the packet dumbbell
/// (Metric VII): every sender starts at window 2, flow i joins at 0.05·i s,
/// and the run lasts lround(duration_seconds / RTT) one-RTT steps. The
/// mixed run of both this grid and Table 2's packet grid (exp/table2.h).
[[nodiscard]] double packet_reno_friendliness(
    const cc::Protocol& proto, int n, double bandwidth_mbps, double rtt_ms,
    double buffer_mss, double duration_seconds, double tail_fraction);

/// The hierarchy check: for each metric, whether the ordering of the three
/// protocols measured in `cell` matches the theory-induced ordering.
struct HierarchyVerdict {
  core::Metric metric;
  bool matches = false;
  std::string measured_order;  // e.g. "Scalable < Cubic < Reno"
  std::string theory_order;
};

[[nodiscard]] std::vector<HierarchyVerdict> check_hierarchies(
    const EmulabCell& cell);

/// One metric's pairwise hierarchy comparison. Scores are higher-is-better
/// (MetricReport::oriented), one per protocol in `names` order. A pair
/// (i, j) is a claim when `reference` puts i above j by more than
/// max(5 % relative, the metric's tie threshold); `candidate` agrees unless
/// it inverts the pair by more than max(2 % relative, `tie_floor` × the
/// tie threshold). The emulab grid uses half the threshold as its floor,
/// the crosscheck the full threshold (packet noise exceeds the emulab
/// grid's long averaging windows).
struct HierarchyJudgement {
  std::string reference_order;  ///< worst to best, e.g. "Scalable < Reno"
  std::string candidate_order;
  int pairs = 0;
  int agreeing_pairs = 0;
};

[[nodiscard]] HierarchyJudgement judge_hierarchy(
    core::Metric m, const std::vector<std::string>& names,
    const std::vector<double>& reference, const std::vector<double>& candidate,
    double tie_floor);

}  // namespace axiomcc::exp
