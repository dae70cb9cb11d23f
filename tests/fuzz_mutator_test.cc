// Tests for the scenario mutator: determinism, dictionary validity, and the
// guarantee that every sanitized mutant validates and compiles.
#include "fuzz/mutator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cc/registry.h"
#include "engine/topology.h"
#include "fuzz/scenario_text.h"
#include "util/rng.h"

namespace axiomcc::fuzz {
namespace {

TEST(FuzzMutator, SeedCorpusValidatesAndCompiles) {
  const std::vector<ScenarioDesc> seeds = Mutator::seed_corpus();
  ASSERT_GT(seeds.size(), 3u);
  for (const ScenarioDesc& seed : seeds) {
    EXPECT_NO_THROW(validate_scenario(seed));
    EXPECT_NO_THROW((void)compile_scenario(seed));
  }
}

TEST(FuzzMutator, ProtocolDictionaryAllConstructible) {
  for (const std::string& spec : Mutator::protocol_dictionary()) {
    EXPECT_NO_THROW((void)cc::make_protocol(spec)) << spec;
  }
}

TEST(FuzzMutator, MutationIsDeterministic) {
  const Mutator mutator;
  const ScenarioDesc base;
  Rng rng_a(99);
  Rng rng_b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(mutator.mutate(base, rng_a), mutator.mutate(base, rng_b));
  }
}

TEST(FuzzMutator, MutantsAlwaysValidateAndCompile) {
  const Mutator mutator;
  Rng rng(7);
  ScenarioDesc current;
  // Walk a deep mutation chain so edits compound into weird corners.
  for (int i = 0; i < 300; ++i) {
    current = mutator.mutate(current, rng);
    ASSERT_NO_THROW(validate_scenario(current)) << serialize_scenario(current);
    ASSERT_NO_THROW((void)compile_scenario(current))
        << serialize_scenario(current);
  }
}

TEST(FuzzMutator, MutantsStayInsideLimits) {
  MutatorLimits limits;
  limits.max_steps = 200;
  limits.max_senders = 3;
  limits.max_cohort_count = 4;
  limits.max_total_senders = 6;
  const Mutator mutator(limits);
  Rng rng(11);
  ScenarioDesc current;
  for (int i = 0; i < 200; ++i) {
    current = mutator.mutate(current, rng);
    EXPECT_GE(current.steps, limits.min_steps);
    EXPECT_LE(current.steps, limits.max_steps);
    EXPECT_LE(current.senders.size(), limits.max_senders);
    EXPECT_GE(current.bandwidth_mbps, limits.min_mbps);
    EXPECT_LE(current.bandwidth_mbps, limits.max_mbps);
    EXPECT_LE(current.bandwidth_scale.points.size(),
              limits.max_schedule_points);
    long population = 0;
    for (const SenderDesc& s : current.senders) {
      EXPECT_GE(s.count, 1);
      EXPECT_LE(s.count, limits.max_cohort_count);
      population += s.count;
    }
    EXPECT_LE(population, limits.max_total_senders);
  }
}

TEST(FuzzMutator, MutationReachesExecutionAxesAndCohorts) {
  // The new axes must actually be reachable moves, not dead dictionary
  // entries: a modest mutation walk visits aggregate traces and
  // multi-sender cohorts.
  const Mutator mutator;
  Rng rng(31);
  ScenarioDesc current;
  bool saw_aggregate = false;
  bool saw_cohort = false;
  for (int i = 0; i < 300; ++i) {
    current = mutator.mutate(current, rng);
    saw_aggregate = saw_aggregate || current.aggregate_trace;
    for (const SenderDesc& s : current.senders) {
      saw_cohort = saw_cohort || s.count > 1;
    }
  }
  EXPECT_TRUE(saw_aggregate);
  EXPECT_TRUE(saw_cohort);
}

TEST(FuzzMutator, MutationReachesTopologyAndWorkloadAxes) {
  const Mutator mutator;
  Rng rng(47);
  ScenarioDesc current;
  bool saw_topology = false;
  bool saw_incast = false;
  bool saw_onoff = false;
  for (int i = 0; i < 400; ++i) {
    current = mutator.mutate(current, rng);
    saw_topology = saw_topology || current.topology_bottlenecks > 0;
    saw_incast =
        saw_incast || current.workload.kind == engine::WorkloadKind::kIncast;
    saw_onoff = saw_onoff ||
                current.workload.kind == engine::WorkloadKind::kOnOffHeavyTail;
    EXPECT_LE(current.topology_bottlenecks, mutator.limits().max_bottlenecks);
    if (!current.workload.empty()) {
      EXPECT_LE(current.workload.flows, mutator.limits().max_workload_flows);
    }
  }
  EXPECT_TRUE(saw_topology);
  EXPECT_TRUE(saw_incast);
  EXPECT_TRUE(saw_onoff);
}

TEST(FuzzMutator, SanitizeCanonicalizesWorkload) {
  const Mutator mutator;
  ScenarioDesc desc;
  // Inactive-kind fields must reset to defaults so two descs serializing
  // identically compare equal (the text format only carries active params).
  desc.workload.kind = engine::WorkloadKind::kIncast;
  desc.workload.flows = 999;
  desc.workload.mean_on_steps = 7.0;  // onoff-only field, not serialized
  mutator.sanitize(desc);
  EXPECT_EQ(desc.workload.kind, engine::WorkloadKind::kIncast);
  EXPECT_LE(desc.workload.flows, mutator.limits().max_workload_flows);
  EXPECT_DOUBLE_EQ(desc.workload.mean_on_steps,
                   engine::WorkloadSpec{}.mean_on_steps);
  // And a none-kind workload collapses fully to the default.
  desc.workload = engine::WorkloadSpec{};
  desc.workload.flows = 3;
  mutator.sanitize(desc);
  EXPECT_EQ(desc.workload, engine::WorkloadSpec{});
}

TEST(FuzzMutator, SanitizeTrimsCohortBudgetKeepingOnePerSlot) {
  MutatorLimits limits;
  limits.max_cohort_count = 8;
  limits.max_total_senders = 10;
  const Mutator mutator(limits);
  ScenarioDesc desc;
  desc.senders = {SenderDesc{"reno", 1.0, 0.0, -1.0, 50},
                  SenderDesc{"reno", 1.0, 0.0, -1.0, 50},
                  SenderDesc{"reno", 1.0, 0.0, -1.0, 50}};
  mutator.sanitize(desc);
  // First slot takes the cohort cap, later slots absorb the budget squeeze,
  // and every slot keeps at least one sender.
  EXPECT_EQ(desc.senders[0].count, 8);
  EXPECT_EQ(desc.senders[1].count, 1);
  EXPECT_EQ(desc.senders[2].count, 1);
}

TEST(FuzzMutator, MutantsRoundTripThroughText) {
  const Mutator mutator;
  Rng rng(23);
  ScenarioDesc current;
  for (int i = 0; i < 100; ++i) {
    current = mutator.mutate(current, rng);
    const std::string text = serialize_scenario(current);
    EXPECT_EQ(parse_scenario(text), current) << text;
  }
}

TEST(FuzzMutator, SpliceIsDeterministicAndValid) {
  const Mutator mutator;
  const std::vector<ScenarioDesc> seeds = Mutator::seed_corpus();
  Rng rng_a(5);
  Rng rng_b(5);
  for (std::size_t i = 0; i + 1 < seeds.size(); ++i) {
    const ScenarioDesc child_a = mutator.splice(seeds[i], seeds[i + 1], rng_a);
    const ScenarioDesc child_b = mutator.splice(seeds[i], seeds[i + 1], rng_b);
    EXPECT_EQ(child_a, child_b);
    EXPECT_NO_THROW(validate_scenario(child_a));
    EXPECT_NO_THROW((void)compile_scenario(child_a));
  }
}

TEST(FuzzMutator, SanitizeClearsExpectAndSortsSchedules) {
  const Mutator mutator;
  ScenarioDesc desc;
  desc.expect = ExpectDesc{"divergence", ""};
  desc.bandwidth_scale.points = {{200, 0.5}, {100, 2.0}, {200, 3.0}};
  mutator.sanitize(desc);
  EXPECT_TRUE(desc.expect.empty());
  ASSERT_EQ(desc.bandwidth_scale.points.size(), 2u);
  EXPECT_EQ(desc.bandwidth_scale.points[0].at, 100);
  EXPECT_EQ(desc.bandwidth_scale.points[1].at, 200);
  // Of the duplicate at=200 entries, the later one wins.
  EXPECT_DOUBLE_EQ(desc.bandwidth_scale.points[1].scale, 3.0);
}

TEST(FuzzMutator, SanitizeKeepsStormWindowNonEmpty) {
  // The storm injector requires a non-empty window, so sanitize must keep
  // 0 <= start < end <= steps for any input window.
  const Mutator mutator;
  for (const long steps : {1L, 2L, 400L}) {
    for (const long start : {-50L, 0L, 10L, 399L, 400L, 5000L}) {
      for (const long end : {-60L, 0L, 10L, 11L, 400L, 9000L}) {
        ScenarioDesc desc;
        desc.steps = steps;
        desc.loss.kind = fluid::LossSpec::Kind::kStorm;
        desc.loss.start = start;
        desc.loss.end = end;
        mutator.sanitize(desc);
        EXPECT_LE(0, desc.loss.start) << start << " " << end;
        EXPECT_LT(desc.loss.start, desc.loss.end) << start << " " << end;
        EXPECT_LE(desc.loss.end, desc.steps) << start << " " << end;
        EXPECT_NO_THROW(validate_scenario(desc)) << start << " " << end;
      }
    }
  }
}

/// True when a sender runs at least one whole step once its window is
/// rounded the way the backends round it (or runs forever).
bool window_at_least_one_step(const SenderDesc& s) {
  return s.stop_step < 0.0 ||
         std::lround(s.stop_step) > std::lround(s.start_step);
}

TEST(FuzzMutator, SanitizeKeepsSenderWindowsAtLeastOneStep) {
  // engine::validate_scenario rejects a window that rounds to less than one
  // step, so sanitize must emit only -1 or windows at least one step long,
  // including at the horizon.
  const Mutator mutator;
  for (const long steps : {16L, 60L}) {
    for (const double start : {0.0, 20.0, 20.2, 20.5, 59.6, 60.0, 500.0}) {
      for (const double stop : {-1.0, 0.0, 20.0, 20.4, 20.6, 30.0, 90.0}) {
        ScenarioDesc desc;
        desc.steps = steps;
        desc.senders = {SenderDesc{"reno", 1.0, start, stop}};
        mutator.sanitize(desc);
        const SenderDesc& s = desc.senders.front();
        EXPECT_TRUE(window_at_least_one_step(s))
            << start << " " << stop << " -> " << s.start_step << " "
            << s.stop_step;
        EXPECT_NO_THROW(engine::validate_scenario(compile_scenario(desc).spec))
            << start << " " << stop;
      }
    }
  }
}

TEST(FuzzMutator, SeededMutantsPassEngineValidation) {
  // Ten seeded chains of 1000 mutations each: no mutant carries a tail
  // fraction of 1 or a sender window shorter than one step, and every
  // compiled spec passes the engine's validator.
  const Mutator mutator;
  const std::vector<ScenarioDesc> seeds = Mutator::seed_corpus();
  for (std::uint64_t chain = 0; chain < 10; ++chain) {
    Rng rng(1000 + chain);
    ScenarioDesc current = seeds[chain % seeds.size()];
    for (int i = 0; i < 1000; ++i) {
      current = mutator.mutate(current, rng);
      ASSERT_LT(current.tail_fraction, 1.0) << serialize_scenario(current);
      for (const SenderDesc& s : current.senders) {
        ASSERT_TRUE(window_at_least_one_step(s))
            << serialize_scenario(current);
      }
      ASSERT_NO_THROW(
          engine::validate_scenario(compile_scenario(current).spec))
          << serialize_scenario(current);
    }
  }
}

}  // namespace
}  // namespace axiomcc::fuzz
