// Pins what a scenario run produces, bit for bit, so a change to how
// scenarios are described, read or assembled cannot move a result unseen.
//
//  * Oracle outcomes: every tests/corpus fixture and every built-in seed
//    scenario runs through fuzz::run_scenario; an FNV-1a digest covers the
//    outcome kind, the divergence bits and the bits of every TraceMetrics
//    field on both backends.
//  * Gauntlet cells: the write_gauntlet_csv output for two protocols over
//    the standard scenario library at seed 1 and 300 steps, without the
//    axiom metrics, on the fluid and on the packet backend.
//  * Routed fluid runs: a churned, lossy, scheduled parking lot at every
//    trace detail and an incast fat tree, each through the fluid backend
//    with a recorder and a metric scope attached; one digest per run covers
//    the trace bits, the recording's event lines and the scope series.
//
// AXIOMCC_CORPUS_DIR is injected by CMake and points at tests/corpus.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/backend.h"
#include "engine/topology.h"
#include "exp/gauntlet.h"
#include "fuzz/fuzzer.h"
#include "recorder/io.h"

namespace axiomcc::fuzz {
namespace {

/// FNV-1a over a stream of 64-bit words, as 16 hex digits.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (word >> (8 * byte)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(long v) { add(static_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h_));
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void add_metrics(Digest& d, const TraceMetrics& m) {
  d.add(m.efficiency);
  d.add(m.mean_loss);
  d.add(m.fairness);
  d.add(m.convergence);
  d.add(m.latency);
  d.add(m.steps);
}

std::string outcome_digest(const RunOutcome& outcome) {
  Digest d;
  d.add(static_cast<long>(outcome.kind));
  d.add(outcome.divergence);
  add_metrics(d, outcome.fluid);
  add_metrics(d, outcome.packet);
  return d.hex();
}

std::string text_digest(const std::string& text) {
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(fnv1a64(text)));
  return out;
}

TEST(ScenarioPins, CorpusFixtureOutcomes) {
  const std::vector<std::pair<std::string, std::string>> pins = {
      {"batch-cohort-aggregate.scn", "9f7811bf56ab4eb4"},
      {"divergence-outage-aimd.scn", "54a8d02c0424606c"},
      {"divergence-parking-lot-beatdown.scn", "835c1cc3bd9d8bb2"},
      {"divergence-rtt-step-veno.scn", "f47003b8abaa3078"},
      {"divergence-zero-buffer.scn", "b111e77a4e13b961"},
      {"fault-late-joiner-contract.scn", "ed1feedcf4c394e1"},
  };
  ASSERT_EQ(list_corpus_files(AXIOMCC_CORPUS_DIR).size(), pins.size())
      << "a corpus fixture was added or removed; pin it here";
  for (const auto& [name, pin] : pins) {
    const auto scenario =
        load_scenario_file(std::string(AXIOMCC_CORPUS_DIR) + "/" + name);
    EXPECT_EQ(outcome_digest(run_scenario(scenario)), pin) << name;
  }
}

TEST(ScenarioPins, SeedCorpusOutcomes) {
  const std::vector<std::string> pins = {
      "9faa54d78c1e0a81", "1ad21f4d4bbd4aa1",
      "395f8a43e8538bbe", "d34838b679e381d3",
      "55063acf14c09bbe", "80b9ba1b60440edd",
      "2c84f39d98c8b514", "b5c022f6df599c68",
      "b97cba8f7b4fe897", "ada0440e76e8df99",
      "3f7ca4d148a6598d",
  };
  const auto seeds = Mutator::seed_corpus();
  ASSERT_EQ(seeds.size(), pins.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(outcome_digest(run_scenario(seeds[i])), pins[i])
        << "seed scenario " << i;
  }
}

std::string gauntlet_csv_digest(engine::BackendKind backend) {
  exp::GauntletConfig cfg;
  cfg.steps = 300;
  cfg.seeds = {1};
  cfg.include_axiom_metrics = false;
  cfg.backend = backend;
  const exp::GauntletResult result =
      exp::run_gauntlet({"aimd(1,0.5)", "cubic(0.4,0.8)"}, cfg);
  std::ostringstream csv;
  exp::write_gauntlet_csv(result.cells, csv);
  return text_digest(csv.str());
}

TEST(ScenarioPins, GauntletCellsFluid) {
  EXPECT_EQ(gauntlet_csv_digest(engine::BackendKind::kFluid),
            "ff9f40d136ce7563");
}

TEST(ScenarioPins, GauntletCellsPacket) {
  EXPECT_EQ(gauntlet_csv_digest(engine::BackendKind::kPacket),
            "0eaeca60286bfb1b");
}

void add_series(Digest& d, std::span<const double> series) {
  d.add(static_cast<long>(series.size()));
  for (const double v : series) d.add(v);
}

/// Trace bits, recording event lines (the header is run metadata) and scope
/// series of one fluid-backend run of `spec`.
std::string routed_fluid_digest(engine::ScenarioSpec spec) {
  spec.record.enabled = true;
  spec.scope.enabled = true;
  spec.scope.window_steps = 32;
  const auto rec = engine::make_recorder(spec);
  const auto scope = engine::make_scope(spec);
  spec.record_sink = rec.get();
  spec.scope_sink = scope.get();
  const fluid::Trace trace =
      engine::backend_for(engine::BackendKind::kFluid).run(spec).trace;

  Digest d;
  d.add(static_cast<long>(trace.num_senders()));
  d.add(trace.link_capacity_mss());
  d.add(trace.min_rtt_seconds());
  for (const int id : trace.tracked_senders()) {
    d.add(static_cast<long>(id));
    add_series(d, trace.windows(id));
    add_series(d, trace.observed_loss(id));
  }
  add_series(d, trace.total_window());
  add_series(d, trace.rtt_seconds());
  add_series(d, trace.congestion_loss());
  if (trace.detail() == fluid::TraceDetail::kAggregate) {
    add_series(d, trace.window_min());
    add_series(d, trace.window_max());
    add_series(d, trace.window_mean());
    for (const long active : trace.active_senders()) d.add(active);
  }

  const std::string jsonl = recorder::recording_to_jsonl(rec->snapshot());
  d.add(fnv1a64(jsonl.substr(jsonl.find('\n') + 1)));

  const scope::ScopeSeries& series = scope->series();
  for (const scope::Channel& c : series.channels) {
    d.add(static_cast<long>(c.kind));
    d.add(static_cast<long>(c.subject));
    d.add(static_cast<long>(c.axis));
    for (const scope::WindowSample& w : c.samples) {
      d.add(w.start_step);
      d.add(w.end_step);
      d.add(w.value);
    }
  }
  for (const scope::WindowSample& w : series.jain) d.add(w.value);
  return d.hex();
}

/// A k = 3 parking lot: a two-member AIMD cohort on the long route, one
/// cross flow per link (one of them churning in and out at fractional
/// steps), Gilbert-Elliott injected loss and both schedules. The cohort
/// starts above every link's C + τ, so upstream loss thins a lossy
/// downstream link's arrivals and the carried-load rounds matter.
engine::ScenarioSpec parking_lot_spec(fluid::TraceDetail detail) {
  engine::ScenarioSpec spec;
  spec.steps = 240;
  spec.seed = 11;
  spec.trace_detail = detail;
  spec.tracked_senders = 3;
  const fluid::LinkParams link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  spec.topology.links = {link, link, link};
  spec.senders = {
      {nullptr, 120.0, 0.0, -1.0, 2, {0, 1, 2}, "aimd(1,0.5)"},
      {nullptr, 2.0, 0.0, -1.0, 1, {0}, "reno"},
      {nullptr, 1.0, 40.4, 180.6, 1, {1}, "cubic(0.4,0.8)"},
      {nullptr, 4.0, 90.0, -1.0, 1, {2}, "robust-aimd(1,0.5,0.01)"},
  };
  spec.loss.kind = fluid::LossSpec::Kind::kGilbertElliott;
  spec.loss.p_gb = 0.05;
  spec.loss.p_bg = 0.3;
  spec.loss.good_rate = 0.0;
  spec.loss.bad_rate = 0.2;
  spec.bandwidth_scale = fluid::Schedule{{{60, 0.5}, {150, 1.5}}};
  spec.rtt_scale = fluid::Schedule{{{100, 2.0}, {200, 1.0}}};
  return spec;
}

/// The 4-leaf x 2-spine fat tree: one ECMP-routed template per ordered leaf
/// pair, alternating AIMD and CUBIC, each expanded into three incast
/// arrivals.
engine::ScenarioSpec fat_tree_spec() {
  engine::ScenarioSpec spec;
  spec.steps = 200;
  spec.seed = 5;
  const engine::FatTreeTopology tree =
      engine::make_fat_tree(4, 2, fluid::make_link_mbps(30.0, 42.0, 100.0));
  spec.topology = tree.topology;
  long flow = 0;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      const char* protocol = flow % 2 == 0 ? "aimd(1,0.5)" : "cubic(0.4,0.8)";
      spec.senders.push_back({nullptr, 1.0, 0.0, -1.0, 1,
                              tree.route(flow, src, dst, spec.seed),
                              protocol});
      ++flow;
    }
  }
  spec.workload.kind = engine::WorkloadKind::kIncast;
  spec.workload.flows = 3;
  spec.workload.spread_steps = 20.0;
  return spec;
}

TEST(ScenarioPins, RoutedFluidRuns) {
  EXPECT_EQ(routed_fluid_digest(parking_lot_spec(fluid::TraceDetail::kFull)),
            "bd3000f56c7598f5");
  EXPECT_EQ(
      routed_fluid_digest(parking_lot_spec(fluid::TraceDetail::kAggregate)),
      "56d9e4c7ef466d01");
  EXPECT_EQ(routed_fluid_digest(parking_lot_spec(fluid::TraceDetail::kLast)),
            "da98ff93333c78dc");
  EXPECT_EQ(routed_fluid_digest(fat_tree_spec()), "af2b794457787eaa");
}

}  // namespace
}  // namespace axiomcc::fuzz
