// Tests for the robustness gauntlet: matrix shape, fault isolation of
// diverging protocols, scorecard aggregation, CSV output, and — the
// acceptance criterion — byte-identical reproducibility for equal seeds.
#include "exp/gauntlet.h"

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/registry.h"
#include "engine/backend.h"
#include "engine/topology.h"
#include "stress/guarded_run.h"
#include "stress/perturbation.h"

namespace axiomcc::exp {
namespace {

/// Emits NaN once past `healthy_steps`, wrecking the cell it runs in.
class NanProtocol final : public cc::Protocol {
 public:
  explicit NanProtocol(long healthy_steps) : healthy_steps_(healthy_steps) {}

  double next_window(const cc::Observation& obs) override {
    if (++calls_ > healthy_steps_) return std::nan("");
    return obs.window + 1.0;
  }
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override { return "NanProto"; }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    return std::make_unique<NanProtocol>(healthy_steps_);
  }
  void reset() override { calls_ = 0; }

 private:
  long healthy_steps_;
  long calls_ = 0;
};

/// Small-but-real config: two scenarios, two seeds, no axiom metrics.
GauntletConfig small_config() {
  GauntletConfig cfg;
  cfg.steps = 300;
  cfg.seeds = {1, 2};
  cfg.include_axiom_metrics = false;

  GauntletOverlay baseline;
  baseline.name = "baseline";

  GauntletOverlay outage;
  outage.name = "outage";
  outage.bandwidth_scale = stress::outage_schedule(120, 30);
  outage.perturb_start = 120;
  outage.perturb_end = 150;

  cfg.scenarios = {baseline, outage};
  return cfg;
}

TEST(Gauntlet, ProducesOneCellPerProtocolScenarioSeed) {
  const cc::Aimd aimd(1.0, 0.5);
  const cc::Aimd gentle(0.5, 0.9);
  const GauntletConfig cfg = small_config();

  const GauntletResult result = run_gauntlet_prototypes(
      std::vector<const cc::Protocol*>{&aimd, &gentle}, cfg);

  EXPECT_EQ(result.cells.size(), 2u * 2u * 2u);
  ASSERT_EQ(result.scorecard.size(), 2u);
  for (const GauntletScore& score : result.scorecard) {
    EXPECT_EQ(score.cells, 4);
    EXPECT_EQ(score.failed_cells, 0);
    EXPECT_GT(score.mean_utilization, 0.0);
    EXPECT_GT(score.mean_retention, 0.0);
    EXPECT_GT(score.worst_fairness, 0.0);
    EXPECT_LE(score.worst_retention, score.mean_retention + 1e-12);
  }
}

TEST(Gauntlet, BaselineCellsScoreFullRetention) {
  const cc::Aimd aimd(1.0, 0.5);
  const GauntletResult result =
      run_gauntlet_prototypes(std::vector<const cc::Protocol*>{&aimd}, small_config());

  for (const GauntletCell& cell : result.cells) {
    ASSERT_TRUE(cell.fault.ok()) << cell.scenario;
    if (cell.scenario == "baseline") {
      // The baseline scenario IS the baseline run: retention ~ 1.
      EXPECT_NEAR(cell.throughput_retention, 1.0, 1e-9);
      EXPECT_EQ(cell.recovery_steps, -1.0);  // nothing to recover from
    } else {
      EXPECT_GT(cell.throughput_retention, 0.0);
      EXPECT_LT(cell.throughput_retention, 1.5);
    }
  }
}

TEST(Gauntlet, OutageCellsMeasureRecovery) {
  const cc::Aimd aimd(1.0, 0.5);
  const GauntletResult result =
      run_gauntlet_prototypes(std::vector<const cc::Protocol*>{&aimd}, small_config());

  bool saw_outage_cell = false;
  for (const GauntletCell& cell : result.cells) {
    if (cell.scenario != "outage") continue;
    saw_outage_cell = true;
    // AIMD regains 80% of baseline within the 150 post-outage steps.
    EXPECT_GE(cell.recovery_steps, 0.0);
    EXPECT_TRUE(std::isfinite(cell.recovery_steps));
    EXPECT_LT(cell.recovery_steps, 150.0);
  }
  EXPECT_TRUE(saw_outage_cell);
}

TEST(Gauntlet, SurvivesADivergingProtocol) {
  const cc::Aimd aimd(1.0, 0.5);
  const NanProtocol nan_proto(40);
  const GauntletConfig cfg = small_config();

  const GauntletResult result = run_gauntlet_prototypes(
      std::vector<const cc::Protocol*>{&nan_proto, &aimd}, cfg);

  // The full matrix exists despite half of it diverging.
  ASSERT_EQ(result.cells.size(), 8u);
  ASSERT_EQ(result.scorecard.size(), 2u);

  int nan_failed = 0;
  for (const GauntletCell& cell : result.cells) {
    if (cell.protocol == "NanProto") {
      EXPECT_FALSE(cell.fault.ok()) << cell.scenario << " seed " << cell.seed;
      EXPECT_EQ(cell.fault.kind, stress::FaultKind::kNonFiniteWindow);
      EXPECT_EQ(cell.utilization, 0.0);
      EXPECT_EQ(cell.throughput_retention, 0.0);
      ++nan_failed;
    } else {
      // The healthy protocol's cells are untouched by its neighbour.
      EXPECT_TRUE(cell.fault.ok());
      EXPECT_GT(cell.utilization, 0.0);
    }
  }
  EXPECT_EQ(nan_failed, 4);

  for (const GauntletScore& score : result.scorecard) {
    if (score.protocol == "NanProto") {
      EXPECT_EQ(score.failed_cells, 4);
    } else {
      EXPECT_EQ(score.failed_cells, 0);
    }
  }
}

TEST(Gauntlet, IdenticalSeedsReproduceIdenticalScorecards) {
  const cc::Aimd aimd(1.0, 0.5);
  GauntletConfig cfg = small_config();
  // Include a stochastic scenario so determinism is non-trivial.
  GauntletOverlay storm;
  storm.name = "loss_storm";
  storm.loss = {.kind = fluid::LossSpec::Kind::kStorm,
                .p_gb = 0.2,
                .p_bg = 0.3,
                .bad_rate = 0.3,
                .start = 100,
                .end = 200};
  cfg.scenarios.push_back(storm);

  const auto render = [&] {
    const GauntletResult result =
        run_gauntlet_prototypes(std::vector<const cc::Protocol*>{&aimd}, cfg);
    std::ostringstream cells;
    std::ostringstream scorecard;
    write_gauntlet_csv(result.cells, cells);
    write_scorecard_csv(result.scorecard, scorecard);
    return cells.str() + "\n---\n" + scorecard.str();
  };

  const std::string first = render();
  const std::string second = render();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Gauntlet, CsvOutputsCarryStatusAndHeaders) {
  const cc::Aimd aimd(1.0, 0.5);
  const NanProtocol nan_proto(40);
  const GauntletResult result = run_gauntlet_prototypes(
      std::vector<const cc::Protocol*>{&aimd, &nan_proto}, small_config());

  std::ostringstream cells;
  write_gauntlet_csv(result.cells, cells);
  const std::string cell_csv = cells.str();
  EXPECT_NE(cell_csv.find("protocol"), std::string::npos);
  EXPECT_NE(cell_csv.find("status"), std::string::npos);
  EXPECT_NE(cell_csv.find("ok"), std::string::npos);
  EXPECT_NE(cell_csv.find("non_finite_window"), std::string::npos);

  std::ostringstream scores;
  write_scorecard_csv(result.scorecard, scores);
  const std::string score_csv = scores.str();
  EXPECT_NE(score_csv.find("failed_cells"), std::string::npos);
  EXPECT_NE(score_csv.find("NanProto"), std::string::npos);
}

TEST(Gauntlet, SpecOverloadParsesUpfront) {
  EXPECT_THROW(
      (void)run_gauntlet(std::vector<std::string>{"aimd(1,0.5)", "bogus(1)"},
                         small_config()),
      std::invalid_argument);

  const GauntletResult result = run_gauntlet(
      std::vector<std::string>{"aimd(1,0.5)"}, small_config());
  EXPECT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.scorecard.size(), 1u);
}

TEST(Gauntlet, DefaultSpecsAllParse) {
  const std::vector<std::string> specs = default_gauntlet_specs();
  EXPECT_GE(specs.size(), 10u);
  for (const std::string& spec : specs) {
    EXPECT_NO_THROW((void)cc::make_protocol(spec)) << spec;
  }
}

TEST(Gauntlet, TopologyModeRunsEveryCellOnTheParkingLot) {
  const cc::Aimd aimd(1.0, 0.5);
  GauntletConfig cfg = small_config();
  cfg.seeds = {1};
  cfg.topology_bottlenecks = 2;

  const GauntletResult result =
      run_gauntlet_prototypes(std::vector<const cc::Protocol*>{&aimd}, cfg);

  ASSERT_EQ(result.cells.size(), 2u);  // 1 protocol × 2 scenarios × 1 seed
  for (const GauntletCell& cell : result.cells) {
    EXPECT_TRUE(cell.fault.ok()) << cell.scenario;
    EXPECT_GT(cell.utilization, 0.0);
    EXPECT_GT(cell.throughput_retention, 0.0);
  }
  // Same matrix again must reproduce byte-identically (the parking-lot
  // path shares the gauntlet's determinism contract).
  const GauntletResult again =
      run_gauntlet_prototypes(std::vector<const cc::Protocol*>{&aimd}, cfg);
  std::ostringstream a;
  std::ostringstream b;
  write_gauntlet_csv(result.cells, a);
  write_gauntlet_csv(again.cells, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Gauntlet, EmptyScenarioListSelectsTheStandardGauntlet) {
  const cc::Aimd aimd(1.0, 0.5);
  GauntletConfig cfg;
  cfg.steps = 300;
  cfg.seeds = {1};
  cfg.include_axiom_metrics = false;
  cfg.scenarios.clear();

  const GauntletResult result =
      run_gauntlet_prototypes(std::vector<const cc::Protocol*>{&aimd}, cfg);
  const std::size_t expected =
      gauntlet_library(cfg.steps).size();
  EXPECT_EQ(result.cells.size(), expected);
}

TEST(ApplyScenario, ChurnAddsJoiningAndLeavingSenders) {
  GauntletOverlay overlay;
  overlay.name = "churn";
  for (const auto& [start, stop] : {std::pair{100.0, 200.0}, {150.0, -1.0}}) {
    engine::SenderSlot slot;
    slot.start_step = start;
    slot.stop_step = stop;
    overlay.churn.push_back(slot);
  }

  GauntletConfig cfg;
  cfg.link = fluid::make_link_mbps(30.0, 42.0, 100.0);
  cfg.steps = 300;
  cfg.num_senders = 1;
  const cc::Aimd proto(1.0, 0.5);
  const engine::ScenarioSpec spec = gauntlet_cell_spec(proto, overlay, 1, cfg);
  ASSERT_EQ(spec.total_senders(), 3);
  EXPECT_EQ(spec.seed, 1u);
  for (const engine::SenderSlot& slot : spec.senders) {
    EXPECT_EQ(slot.prototype, &proto);
  }

  const fluid::Trace trace =
      engine::backend_for(engine::BackendKind::kFluid).run(spec).trace;
  // Sender 1 joins at 100 and leaves at 200.
  EXPECT_DOUBLE_EQ(trace.windows(1)[99], 0.0);
  EXPECT_GT(trace.windows(1)[100], 0.0);
  EXPECT_GT(trace.windows(1)[199], 0.0);
  EXPECT_DOUBLE_EQ(trace.windows(1)[200], 0.0);
  EXPECT_DOUBLE_EQ(trace.windows(1)[299], 0.0);
  // Sender 2 joins at 150 and stays.
  EXPECT_DOUBLE_EQ(trace.windows(2)[149], 0.0);
  EXPECT_GT(trace.windows(2)[299], 0.0);
  // The base sender runs throughout.
  EXPECT_GT(trace.windows(0)[0], 0.0);
  EXPECT_GT(trace.windows(0)[299], 0.0);
}

TEST(ApplyScenario, ChurnJoinsTheLongRouteOfAParkingLot) {
  GauntletConfig cfg;
  cfg.steps = 300;
  cfg.topology_bottlenecks = 3;
  const cc::Aimd proto(1.0, 0.5);
  const GauntletOverlay churn = gauntlet_library(cfg.steps).back();
  ASSERT_EQ(churn.name, "churn");
  const engine::ScenarioSpec spec = gauntlet_cell_spec(proto, churn, 7, cfg);
  ASSERT_EQ(spec.senders.size(), 1 + 3 + churn.churn.size());
  for (std::size_t i = spec.senders.size() - churn.churn.size();
       i < spec.senders.size(); ++i) {
    EXPECT_EQ(spec.senders[i].route, (std::vector<int>{0, 1, 2}));
  }
  EXPECT_NO_THROW(engine::validate_scenario(spec));
}

TEST(StandardGauntlet, HasTheDocumentedScenarioMix) {
  const auto scenarios = gauntlet_library(900);
  ASSERT_GE(scenarios.size(), 6u);  // ≥5 distinct + baseline

  bool has_bandwidth = false;
  bool has_rtt = false;
  bool has_loss = false;
  bool has_churn = false;
  for (const GauntletOverlay& s : scenarios) {
    EXPECT_FALSE(s.name.empty());
    if (!s.bandwidth_scale.empty()) has_bandwidth = true;
    if (!s.rtt_scale.empty()) has_rtt = true;
    if (!s.loss.empty()) has_loss = true;
    if (!s.churn.empty()) has_churn = true;
  }
  EXPECT_TRUE(has_bandwidth);
  EXPECT_TRUE(has_rtt);
  EXPECT_TRUE(has_loss);
  EXPECT_TRUE(has_churn);

  // Names are unique (scorecards key on them).
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (std::size_t j = i + 1; j < scenarios.size(); ++j) {
      EXPECT_NE(scenarios[i].name, scenarios[j].name);
    }
  }
}

}  // namespace
}  // namespace axiomcc::exp
