// Tests for the stress perturbation shapes: schedule builders and loss
// storms. The gauntlet's overlay library is tested with the gauntlet.
#include "stress/perturbation.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "fluid/loss_model.h"
#include "util/check.h"

namespace axiomcc::stress {
namespace {

/// True when `schedule` is bitwise equal to `formula` on every step of the
/// horizon [0, steps).
template <typename Formula>
bool matches_on_horizon(const fluid::Schedule& schedule, long steps,
                        Formula formula) {
  for (long step = 0; step < steps; ++step) {
    const double got = schedule.at(step);
    const double want = formula(step);
    if (std::memcmp(&got, &want, sizeof got) != 0) return false;
  }
  return true;
}

constexpr long kHorizon = 600;

TEST(Schedules, OutageDropsAndRestores) {
  const fluid::Schedule s = outage_schedule(10, 5, 1e-3);
  EXPECT_DOUBLE_EQ(s.at(9), 1.0);  // before the first breakpoint
  EXPECT_DOUBLE_EQ(s.at(10), 1e-3);  // on a breakpoint
  EXPECT_DOUBLE_EQ(s.at(14), 1e-3);
  EXPECT_DOUBLE_EQ(s.at(15), 1.0);
  EXPECT_DOUBLE_EQ(s.at(100000), 1.0);  // past the last one

  const long start = 240;
  const long end = start + 60;
  EXPECT_TRUE(matches_on_horizon(
      outage_schedule(start, end - start, 1e-3), kHorizon,
      [](long step) { return (step >= start && step < end) ? 1e-3 : 1.0; }));
}

TEST(Schedules, SquareWaveAlternates) {
  const fluid::Schedule s = square_wave_schedule(20, 10, 1.0, 0.25);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(4), 1.0);
  EXPECT_DOUBLE_EQ(s.at(5), 0.25);
  EXPECT_DOUBLE_EQ(s.at(9), 0.25);
  EXPECT_DOUBLE_EQ(s.at(10), 1.0);  // next period

  const long period = 120;
  const long phase = 37;
  EXPECT_TRUE(matches_on_horizon(
      square_wave_schedule(kHorizon, period, 1.0, 0.4, phase), kHorizon,
      [](long step) {
        const long pos = (step + phase) % period;
        return pos < period / 2 ? 1.0 : 0.4;
      }));
}

TEST(Schedules, SawtoothRampsAndSnapsBack) {
  const fluid::Schedule s = sawtooth_schedule(10, 5, 0.2, 1.0);
  EXPECT_DOUBLE_EQ(s.at(0), 0.2);
  EXPECT_DOUBLE_EQ(s.at(4), 1.0);   // top of the ramp
  EXPECT_DOUBLE_EQ(s.at(5), 0.2);   // snapped back
  EXPECT_LT(s.at(1), s.at(2));

  const long period = kHorizon / 6;
  EXPECT_TRUE(matches_on_horizon(
      sawtooth_schedule(kHorizon, period, 0.3, 1.0), kHorizon, [](long step) {
        const long pos = step % period;
        return 0.3 + (1.0 - 0.3) * static_cast<double>(pos) /
                         static_cast<double>(period - 1);
      }));
}

TEST(Schedules, StepChangeIsPersistent) {
  const fluid::Schedule s = step_change_schedule(100, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(s.at(99), 1.0);
  EXPECT_DOUBLE_EQ(s.at(100), 3.0);
  EXPECT_DOUBLE_EQ(s.at(100000), 3.0);

  for (const long at : {0L, 300L}) {
    EXPECT_TRUE(matches_on_horizon(step_change_schedule(at, 0.5, 3.0),
                                   kHorizon, [at](long step) {
                                     return step < at ? 0.5 : 3.0;
                                   }))
        << at;
  }
}

TEST(Schedules, ValidateParameters) {
  EXPECT_THROW(outage_schedule(-1, 5, 0.1), ContractViolation);
  EXPECT_THROW(outage_schedule(0, 0, 0.1), ContractViolation);
  EXPECT_THROW(square_wave_schedule(100, 1, 1.0, 0.5), ContractViolation);
  EXPECT_THROW(sawtooth_schedule(100, 5, 0.5, 0.2), ContractViolation);
}

TEST(LossStorm, InjectsOnlyInsideItsWindow) {
  fluid::LossStorm storm(50, 100, 0.9, 0.05, 0.0, 0.4, 3);
  for (long t = 0; t < 50; ++t) EXPECT_DOUBLE_EQ(storm.sample(t, 0), 0.0);
  double inside = 0.0;
  for (long t = 50; t < 100; ++t) inside += storm.sample(t, 0);
  EXPECT_GT(inside, 0.0) << "storm never entered the bad state";
  for (long t = 100; t < 200; ++t) EXPECT_DOUBLE_EQ(storm.sample(t, 0), 0.0);
}

TEST(LossStorm, IsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    fluid::LossStorm storm(0, 400, 0.2, 0.3, 0.0, 0.3, seed);
    std::vector<double> out;
    for (long t = 0; t < 400; ++t) out.push_back(storm.sample(t, 0));
    return out;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(LossStorm, CloneCopiesFullState) {
  fluid::LossStorm storm(0, 10000, 0.5, 0.1, 0.0, 0.4, 11);
  for (long t = 0; t < 200; ++t) (void)storm.sample(t, 0);
  const auto clone = storm.clone();
  for (long t = 200; t < 600; ++t) {
    ASSERT_DOUBLE_EQ(clone->sample(t, 0), storm.sample(t, 0));
  }
}

}  // namespace
}  // namespace axiomcc::stress
