// Cross-protocol invariant suite: properties EVERY protocol in the registry
// must satisfy, run as a parameterized sweep over the whole zoo. These are
// the library's safety net — any new protocol added to the registry is
// automatically subjected to them.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "cc/registry.h"
#include "core/evaluator.h"
#include "fluid/sim.h"

namespace axiomcc {
namespace {

/// Canonical instances of every registered family.
const char* kAllProtocols[] = {
    "aimd(1,0.5)",
    "aimd(2,0.875)",
    "mimd(1.01,0.875)",
    "bin(1,0.5,1,0)",
    "bin(1,0.5,0.5,0.5)",
    "cubic(0.4,0.8)",
    "robust_aimd(1,0.8,0.01)",
    "vegas(2,4)",
    "pcc",
    "bbr",
    "highspeed",
    "westwood",
    "illinois",
    "veno",
    "cautious",
    "reno",
    "scalable",
    "cubic-linux",
};

class EveryProtocol : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::unique_ptr<cc::Protocol> make() const {
    return cc::make_protocol(GetParam());
  }
};

TEST_P(EveryProtocol, RunsOnTheSharedLinkWithoutNansOrBoundViolations) {
  const auto proto = make();
  fluid::SimOptions opt;
  opt.steps = 1500;
  opt.min_window_mss = 1.0;
  opt.max_window_mss = 1e6;
  fluid::FluidSimulation sim(fluid::make_link_mbps(30.0, 42.0, 100.0), opt);
  sim.add_sender(*proto, 1.0);
  sim.add_sender(*proto, 50.0);
  const fluid::Trace trace = sim.run();

  for (int i = 0; i < trace.num_senders(); ++i) {
    for (double w : trace.windows(i)) {
      ASSERT_TRUE(std::isfinite(w));
      ASSERT_GE(w, 1.0);
      ASSERT_LE(w, 1e6);
    }
  }
}

TEST_P(EveryProtocol, IsDeterministic) {
  const auto run_once = [&] {
    const auto proto = make();
    fluid::SimOptions opt;
    opt.steps = 800;
    fluid::FluidSimulation sim(fluid::make_link_mbps(20.0, 40.0, 50.0), opt);
    sim.add_sender(*proto, 2.0);
    const fluid::Trace t = sim.run();
    return std::vector<double>(t.windows(0).begin(), t.windows(0).end());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(EveryProtocol, CloneIsIndependentOfTheOriginal) {
  const auto original = make();
  const auto clone = original->clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), original->name());

  // Drive the original through some history; the clone must still behave
  // like a fresh instance (same first response as another fresh clone).
  const cc::Observation step{10.0, 0.0, 0.042};
  for (int i = 0; i < 20; ++i) (void)original->next_window(step);

  const auto fresh = make();
  EXPECT_DOUBLE_EQ(clone->next_window(step), fresh->next_window(step));
}

TEST_P(EveryProtocol, ResetRestoresInitialBehaviour) {
  const auto proto = make();
  const auto fresh = make();
  const cc::Observation step{10.0, 0.0, 0.042};
  const cc::Observation lossy{10.0, 0.3, 0.042};

  (void)proto->next_window(step);
  (void)proto->next_window(lossy);
  (void)proto->next_window(step);
  proto->reset();

  EXPECT_DOUBLE_EQ(proto->next_window(step), fresh->next_window(step));
}

TEST_P(EveryProtocol, NameRoundTripsThroughTheRegistryWhereParseable) {
  const auto proto = make();
  EXPECT_FALSE(proto->name().empty());
}

TEST_P(EveryProtocol, SurvivesExtremeObservations) {
  const auto proto = make();
  const cc::Observation extremes[] = {
      {1.0, 0.0, 1e-6},   // tiny window, tiny RTT
      {1e6, 0.0, 10.0},   // huge window, huge RTT
      {100.0, 0.999, 0.05},  // near-total loss
      {100.0, 0.0, 0.0},  // degenerate RTT (first step before a sample)
  };
  for (const auto& obs : extremes) {
    const double next = proto->next_window(obs);
    EXPECT_TRUE(std::isfinite(next)) << proto->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, EveryProtocol,
                         ::testing::ValuesIn(kAllProtocols),
                         [](const auto& p) {
                           std::string name = p.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace axiomcc
