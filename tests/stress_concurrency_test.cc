// Thread-safety tests for the guarded runner: many guarded evaluations of
// diverging protocols running concurrently on the task pool must produce
// isolated FaultReports — each cell sees its own fault, step, and detail,
// with no cross-talk between worker threads. Run these under
// -DAXIOMCC_SANITIZE_THREAD=ON to have TSan check the pool itself.
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/protocol.h"
#include "engine/backend.h"
#include "fluid/link.h"
#include "stress/guarded_run.h"
#include "util/task_pool.h"

namespace axiomcc::stress {
namespace {

fluid::LinkParams paper_link() {
  return fluid::make_link_mbps(30.0, 42.0, 100.0);
}

/// A guarded fluid run of one `proto` sender on the paper link. The spec
/// holds a pointer to `proto`, which outlives the call.
FaultReport run_fluid(const cc::Protocol& proto, long steps) {
  engine::ScenarioSpec spec;
  spec.link = paper_link();
  spec.steps = steps;
  spec.add_sender(proto, 1.0);
  return run_guarded(engine::backend_for(engine::BackendKind::kFluid),
                     std::move(spec))
      .fault;
}

/// Multiplies its window by 10 every step, ignoring loss — trips the
/// aggregate-blowup monitor deterministically.
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

/// Throws a task-unique message after a task-dependent number of calls, so
/// any cross-talk between concurrent cells shows up as a wrong detail or a
/// wrong fault step.
class ThrowingProtocol final : public cc::Protocol {
 public:
  ThrowingProtocol(long healthy_steps, std::string tag)
      : healthy_steps_(healthy_steps), tag_(std::move(tag)) {}

  double next_window(const cc::Observation& obs) override {
    if (++calls_ > healthy_steps_) throw std::runtime_error(tag_);
    return obs.window + 1.0;
  }
  [[nodiscard]] bool loss_based() const override { return true; }
  [[nodiscard]] std::string name() const override { return "Throwing"; }
  [[nodiscard]] std::unique_ptr<cc::Protocol> clone() const override {
    return std::make_unique<ThrowingProtocol>(healthy_steps_, tag_);
  }
  void reset() override { calls_ = 0; }

 private:
  long healthy_steps_;
  std::string tag_;
  long calls_ = 0;
};

TEST(GuardedConcurrency, ConcurrentThrowingCellsKeepTheirOwnDetails) {
  constexpr std::size_t kCells = 24;
  const auto reports = parallel_map(
      kCells,
      [](std::size_t i) {
        const ThrowingProtocol proto(static_cast<long>(5 + i),
                                     "task-" + std::to_string(i));
        return run_fluid(proto, 400);
      },
      4);

  ASSERT_EQ(reports.size(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(reports[i].kind, FaultKind::kException) << "cell " << i;
    // The detail is exactly this cell's tag — no neighbour's message leaked.
    EXPECT_EQ(reports[i].detail, "task-" + std::to_string(i));
  }
}

TEST(GuardedConcurrency, MixedCleanAndDivergingCellsStayIsolated) {
  constexpr std::size_t kCells = 16;
  const auto reports = parallel_map(
      kCells,
      [](std::size_t i) {
        if (i % 2 == 0) return run_fluid(cc::Aimd(1.0, 0.5), 300);
        return run_fluid(BlowupProtocol(), 300);
      },
      4);

  for (std::size_t i = 0; i < kCells; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(reports[i].ok()) << "clean cell " << i << " was polluted: "
                                   << reports[i].detail;
    } else {
      EXPECT_EQ(reports[i].kind, FaultKind::kAggregateBlowup) << "cell " << i;
      EXPECT_GE(reports[i].step, 0);
    }
  }
}

TEST(GuardedConcurrency, ParallelFaultsMatchSerialFaults) {
  constexpr std::size_t kCells = 12;
  const auto run_cell = [](std::size_t i) {
    const ThrowingProtocol proto(static_cast<long>(3 * (i + 1)),
                                 "cell-" + std::to_string(i));
    return run_fluid(proto, 300);
  };
  const auto serial = parallel_map(kCells, run_cell, 1);
  const auto parallel = parallel_map(kCells, run_cell, 4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(serial[i].kind, parallel[i].kind) << "cell " << i;
    EXPECT_EQ(serial[i].step, parallel[i].step) << "cell " << i;
    EXPECT_EQ(serial[i].detail, parallel[i].detail) << "cell " << i;
  }
}

}  // namespace
}  // namespace axiomcc::stress
