// Tests for the guarded simulation runner: each invariant monitor, the
// exception-to-FaultReport conversion, and clean-run passthrough.
#include "stress/guarded_run.h"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/protocol.h"
#include "engine/backend.h"
#include "fluid/link.h"
#include "util/check.h"

namespace axiomcc::stress {
namespace {

fluid::LinkParams paper_link() {
  return fluid::make_link_mbps(30.0, 42.0, 100.0);
}

/// Behaves like AIMD for `healthy_steps`, then emits `poison` forever.
class PoisonProtocol final : public cc::Protocol {
 public:
  PoisonProtocol(long healthy_steps, double poison)
      : healthy_steps_(healthy_steps), poison_(poison) {}

  double next_window(const cc::Observation& obs) override {
    if (++calls_ > healthy_steps_) return poison_;
    return obs.window + 1.0;
  }
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Poison"; }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    return std::make_unique<PoisonProtocol>(healthy_steps_, poison_);
  }
  void reset() override { calls_ = 0; }

 private:
  long healthy_steps_;
  double poison_;
  long calls_ = 0;
};

/// Multiplies its window by 10 every step, ignoring loss entirely.
class BlowupProtocol final : public cc::Protocol {
 public:
  double next_window(const cc::Observation& obs) override {
    return obs.window * 10.0;
  }
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Blowup"; }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    return std::make_unique<BlowupProtocol>();
  }
  void reset() override {}
};

/// Throws from next_window after `healthy_steps` calls.
class ThrowingProtocol final : public cc::Protocol {
 public:
  explicit ThrowingProtocol(long healthy_steps)
      : healthy_steps_(healthy_steps) {}

  double next_window(const cc::Observation& obs) override {
    if (++calls_ > healthy_steps_) {
      throw std::runtime_error("protocol state corrupted");
    }
    return obs.window + 1.0;
  }
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Throwing"; }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    return std::make_unique<ThrowingProtocol>(healthy_steps_);
  }
  void reset() override { calls_ = 0; }

 private:
  long healthy_steps_;
  long calls_ = 0;
};

/// One sender of `proto` on the paper link. The spec keeps a pointer to
/// `proto`, which must outlive the run.
engine::ScenarioSpec make_spec(const cc::Protocol& proto, long steps) {
  engine::ScenarioSpec spec;
  spec.link = paper_link();
  spec.steps = steps;
  spec.add_sender(proto, 1.0);
  return spec;
}

GuardedResult run_fluid(const cc::Protocol& proto, long steps,
                        const GuardConfig& config = {}) {
  return run_guarded(engine::backend_for(engine::BackendKind::kFluid),
                     make_spec(proto, steps), config);
}

TEST(GuardedRun, CleanRunPassesThrough) {
  const cc::Aimd aimd(1.0, 0.5);
  const GuardedResult result = run_fluid(aimd, 500);
  EXPECT_TRUE(result.fault.ok());
  EXPECT_EQ(result.fault.kind, FaultKind::kNone);
  EXPECT_EQ(result.trace.num_steps(), 500u);
}

TEST(GuardedRun, CatchesNaNWindows) {
  const PoisonProtocol poison(50, std::numeric_limits<double>::quiet_NaN());
  const GuardedResult result = run_fluid(poison, 500);
  EXPECT_EQ(result.fault.kind, FaultKind::kNonFiniteWindow);
  EXPECT_EQ(result.fault.sender, 0);
  EXPECT_GT(result.fault.step, 49);
  // Truncated at the fault, not run to the horizon.
  EXPECT_LT(result.trace.num_steps(), 100u);
  EXPECT_GT(result.trace.num_steps(), 0u);
}

TEST(GuardedRun, CatchesInfiniteWindows) {
  const PoisonProtocol poison(50, std::numeric_limits<double>::infinity());
  const GuardedResult result = run_fluid(poison, 500);
  // +inf is clamped to the simulator's max window, which still trips the
  // (smaller) guard bound as a blowup.
  EXPECT_TRUE(result.fault.kind == FaultKind::kNonFiniteWindow ||
              result.fault.kind == FaultKind::kAggregateBlowup);
  EXPECT_FALSE(result.fault.ok());
}

TEST(GuardedRun, CatchesWindowBlowup) {
  const BlowupProtocol blowup;
  const GuardedResult result = run_fluid(blowup, 500);
  EXPECT_EQ(result.fault.kind, FaultKind::kAggregateBlowup);
  EXPECT_LT(result.trace.num_steps(), 50u);  // 10^k growth trips fast
  EXPECT_FALSE(result.fault.detail.empty());
}

TEST(GuardedRun, CatchesQueueGrowth) {
  GuardConfig config;
  config.max_queue_mss = 10.0;  // the paper link buffers up to 100 MSS
  const cc::Aimd aimd(1.0, 0.5);
  const GuardedResult result = run_fluid(aimd, 500, config);
  EXPECT_EQ(result.fault.kind, FaultKind::kQueueGrowth);
}

TEST(GuardedRun, StepBudgetWatchdogTrips) {
  GuardConfig config;
  config.step_budget = 50;
  const cc::Aimd aimd(1.0, 0.5);
  const GuardedResult result = run_fluid(aimd, 5000, config);
  EXPECT_EQ(result.fault.kind, FaultKind::kStepBudget);
  EXPECT_EQ(result.fault.step, 50);
  EXPECT_EQ(result.trace.num_steps(), 51u);
}

TEST(GuardedRun, ConvertsProtocolExceptionsToFaultReports) {
  const ThrowingProtocol throwing(30);
  const GuardedResult result = run_fluid(throwing, 500);
  EXPECT_EQ(result.fault.kind, FaultKind::kException);
  EXPECT_NE(result.fault.detail.find("protocol state corrupted"),
            std::string::npos);
  // The in-progress trace died with the exception: empty stand-in.
  EXPECT_EQ(result.trace.num_steps(), 0u);
}

TEST(GuardedRun, ValidatesItsConfig) {
  const cc::Aimd aimd(1.0, 0.5);
  GuardConfig config;
  config.max_window_mss = 0.0;
  EXPECT_THROW((void)run_fluid(aimd, 100, config), ContractViolation);
}

TEST(GuardInvoke, MapsOutcomes) {
  EXPECT_TRUE(guard_invoke([] {}).ok());

  const FaultReport contract =
      guard_invoke([] { AXIOMCC_EXPECTS_MSG(false, "boom"); });
  EXPECT_EQ(contract.kind, FaultKind::kContractViolation);
  EXPECT_NE(contract.detail.find("boom"), std::string::npos);

  const FaultReport generic =
      guard_invoke([] { throw std::runtime_error("bang"); });
  EXPECT_EQ(generic.kind, FaultKind::kException);
  EXPECT_EQ(generic.detail, "bang");
}

TEST(GuardedRunBackend, CleanRunOnBothBackends) {
  const cc::Aimd aimd(1.0, 0.5);
  for (const auto kind :
       {engine::BackendKind::kFluid, engine::BackendKind::kPacket}) {
    engine::ScenarioSpec spec;
    spec.link = paper_link();
    spec.steps = 200;
    spec.add_sender(aimd, 2.0);
    spec.add_sender(aimd, 8.0);
    const GuardedResult result =
        run_guarded(engine::backend_for(kind), std::move(spec));
    EXPECT_TRUE(result.fault.ok()) << engine::backend_name(kind) << ": "
                                   << result.fault.detail;
    EXPECT_GT(result.trace.num_steps(), 150u) << engine::backend_name(kind);
  }
}

TEST(GuardedRunBackend, TripsTheWindowGuardOnTheFluidBackend) {
  const BlowupProtocol blowup;
  engine::ScenarioSpec spec;
  spec.link = paper_link();
  spec.steps = 400;
  spec.add_sender(blowup, 2.0);
  const GuardedResult result =
      run_guarded(engine::backend_for(engine::BackendKind::kFluid),
                  std::move(spec));
  EXPECT_EQ(result.fault.kind, FaultKind::kAggregateBlowup);
  // The guard stopped the run early; the partial trace survives.
  EXPECT_GT(result.trace.num_steps(), 0u);
  EXPECT_LT(result.trace.num_steps(), 400u);
}

TEST(GuardedRunBackend, ConvertsBackendContractViolations) {
  engine::ScenarioSpec spec;  // no senders: the backend rejects it
  spec.link = paper_link();
  spec.steps = 50;
  const GuardedResult result =
      run_guarded(engine::backend_for(engine::BackendKind::kFluid),
                  std::move(spec));
  EXPECT_EQ(result.fault.kind, FaultKind::kContractViolation);
  EXPECT_EQ(result.trace.num_steps(), 0u);
}

TEST(FaultKindNames, AreStableIdentifiers) {
  EXPECT_STREQ(fault_kind_name(FaultKind::kNone), "ok");
  EXPECT_STREQ(fault_kind_name(FaultKind::kNonFiniteWindow),
               "non_finite_window");
  EXPECT_STREQ(fault_kind_name(FaultKind::kStepBudget), "step_budget");
  EXPECT_STREQ(fault_kind_name(FaultKind::kException), "exception");
}

}  // namespace
}  // namespace axiomcc::stress
