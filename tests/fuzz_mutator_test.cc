// Tests for the scenario mutator: determinism, dictionary validity, and the
// guarantee that every sanitized mutant is readable, passes the engine's
// validation and expands to at least one sender.
#include "fuzz/mutator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "cc/registry.h"
#include "engine/topology.h"
#include "engine/workload.h"
#include "fuzz/scenario_text.h"
#include "util/rng.h"

namespace axiomcc::fuzz {
namespace {

using engine::ScenarioSpec;
using engine::SenderSlot;

/// Mutants and seeds carry no prototypes, so text equality is scenario
/// equality.
std::string text(const ScenarioSpec& spec) { return serialize_scenario(spec); }

TEST(FuzzMutator, SeedCorpusValidatesAndCompiles) {
  const std::vector<ScenarioSpec> seeds = Mutator::seed_corpus();
  ASSERT_GT(seeds.size(), 3u);
  for (const ScenarioSpec& seed : seeds) {
    EXPECT_NO_THROW(check_readable(seed));
    EXPECT_NO_THROW(engine::validate_scenario(seed));
  }
}

TEST(FuzzMutator, ProtocolDictionaryAllConstructible) {
  for (const std::string& spec : Mutator::protocol_dictionary()) {
    EXPECT_NO_THROW((void)cc::make_protocol(spec)) << spec;
  }
}

TEST(FuzzMutator, MutationIsDeterministic) {
  const Mutator mutator;
  const ScenarioSpec base = default_scenario();
  Rng rng_a(99);
  Rng rng_b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(text(mutator.mutate(base, rng_a)),
              text(mutator.mutate(base, rng_b)));
  }
}

TEST(FuzzMutator, MutantsAlwaysValidateAndCompile) {
  const Mutator mutator;
  Rng rng(7);
  ScenarioSpec current = default_scenario();
  // Walk a deep mutation chain so edits compound into weird corners.
  for (int i = 0; i < 300; ++i) {
    current = mutator.mutate(current, rng);
    ASSERT_NO_THROW(check_readable(current)) << text(current);
    ASSERT_NO_THROW(engine::validate_scenario(current)) << text(current);
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
  ScenarioSpec current = default_scenario();
  for (int i = 0; i < 200; ++i) {
    current = mutator.mutate(current, rng);
    EXPECT_GE(current.steps, limits.min_steps);
    EXPECT_LE(current.steps, limits.max_steps);
    EXPECT_LE(current.senders.size(), limits.max_senders);
    EXPECT_GE(current.link.bandwidth.mss_per_sec(),
              limits.min_bandwidth_mss_per_sec);
    EXPECT_LE(current.link.bandwidth.mss_per_sec(),
              limits.max_bandwidth_mss_per_sec);
    EXPECT_GE(current.link.propagation_delay.value(), limits.min_delay_s);
    EXPECT_LE(current.link.propagation_delay.value(), limits.max_delay_s);
    EXPECT_LE(current.bandwidth_scale.points.size(),
              limits.max_schedule_points);
    long population = 0;
    for (const SenderSlot& s : current.senders) {
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
  ScenarioSpec current = default_scenario();
  bool saw_aggregate = false;
  bool saw_cohort = false;
  for (int i = 0; i < 300; ++i) {
    current = mutator.mutate(current, rng);
    saw_aggregate = saw_aggregate ||
                    current.trace_detail == fluid::TraceDetail::kAggregate;
    for (const SenderSlot& s : current.senders) {
      saw_cohort = saw_cohort || s.count > 1;
    }
  }
  EXPECT_TRUE(saw_aggregate);
  EXPECT_TRUE(saw_cohort);
}

TEST(FuzzMutator, NeverEmitsLastStepTraces) {
  // The runner's trace oracles need at least 4 steps; a last-step trace
  // holds one, so neither mutation nor splicing may introduce it.
  const Mutator mutator;
  const std::vector<ScenarioSpec> seeds = Mutator::seed_corpus();
  Rng rng(59);
  for (const ScenarioSpec& seed : seeds) {
    ScenarioSpec current = seed;
    for (int i = 0; i < 200; ++i) {
      current = mutator.mutate(current, rng);
      ASSERT_NE(current.trace_detail, fluid::TraceDetail::kLast) << i;
    }
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const ScenarioSpec child =
        mutator.splice(seeds[i], seeds[(i + 1) % seeds.size()], rng);
    EXPECT_NE(child.trace_detail, fluid::TraceDetail::kLast);
  }
}

TEST(FuzzMutator, MutationReachesTopologyAndWorkloadAxes) {
  const Mutator mutator;
  Rng rng(47);
  ScenarioSpec current = default_scenario();
  bool saw_topology = false;
  bool saw_incast = false;
  bool saw_onoff = false;
  for (int i = 0; i < 400; ++i) {
    current = mutator.mutate(current, rng);
    saw_topology = saw_topology || !current.topology.empty();
    saw_incast =
        saw_incast || current.workload.kind == engine::WorkloadKind::kIncast;
    saw_onoff = saw_onoff ||
                current.workload.kind == engine::WorkloadKind::kOnOffHeavyTail;
    EXPECT_LE(current.topology.num_links(), mutator.limits().max_bottlenecks);
    // A parking lot over copies of `link`, routed by slot order.
    for (const fluid::LinkParams& link : current.topology.links) {
      EXPECT_EQ(link.bandwidth, current.link.bandwidth);
      EXPECT_EQ(link.propagation_delay, current.link.propagation_delay);
      EXPECT_EQ(link.buffer_mss, current.link.buffer_mss);
    }
    for (std::size_t j = 0; j < current.senders.size(); ++j) {
      EXPECT_EQ(current.senders[j].route.empty(), current.topology.empty());
      if (j > 0 && !current.topology.empty()) {
        EXPECT_EQ(current.senders[j].route,
                  (std::vector<int>{static_cast<int>(
                      (j - 1) % current.topology.links.size())}));
      }
    }
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
  ScenarioSpec spec = default_scenario();
  // Inactive-kind fields must reset to defaults so two specs serializing
  // identically hold equal workloads (the text format only carries active
  // params).
  spec.workload.kind = engine::WorkloadKind::kIncast;
  spec.workload.flows = 999;
  spec.workload.mean_on_steps = 7.0;  // onoff-only field, not serialized
  mutator.sanitize(spec);
  EXPECT_EQ(spec.workload.kind, engine::WorkloadKind::kIncast);
  EXPECT_LE(spec.workload.flows, mutator.limits().max_workload_flows);
  EXPECT_DOUBLE_EQ(spec.workload.mean_on_steps,
                   engine::WorkloadSpec{}.mean_on_steps);
  // And a none-kind workload collapses fully to the default.
  spec.workload = engine::WorkloadSpec{};
  spec.workload.flows = 3;
  mutator.sanitize(spec);
  EXPECT_EQ(spec.workload, engine::WorkloadSpec{});
}

TEST(FuzzMutator, SanitizeTrimsCohortBudgetKeepingOnePerSlot) {
  MutatorLimits limits;
  limits.max_cohort_count = 8;
  limits.max_total_senders = 10;
  const Mutator mutator(limits);
  ScenarioSpec spec = default_scenario();
  spec.senders = {sender_slot("reno", 1.0, 0.0, -1.0, 50),
                  sender_slot("reno", 1.0, 0.0, -1.0, 50),
                  sender_slot("reno", 1.0, 0.0, -1.0, 50)};
  mutator.sanitize(spec);
  // First slot takes the cohort cap, later slots absorb the budget squeeze,
  // and every slot keeps at least one sender.
  EXPECT_EQ(spec.senders[0].count, 8);
  EXPECT_EQ(spec.senders[1].count, 1);
  EXPECT_EQ(spec.senders[2].count, 1);
}

TEST(FuzzMutator, MutantsRoundTripThroughText) {
  const Mutator mutator;
  Rng rng(23);
  ScenarioSpec current = default_scenario();
  for (int i = 0; i < 100; ++i) {
    current = mutator.mutate(current, rng);
    const std::string written = text(current);
    EXPECT_EQ(text(parse_scenario(written)), written);
  }
}

TEST(FuzzMutator, SpliceIsDeterministicAndValid) {
  const Mutator mutator;
  const std::vector<ScenarioSpec> seeds = Mutator::seed_corpus();
  Rng rng_a(5);
  Rng rng_b(5);
  for (std::size_t i = 0; i + 1 < seeds.size(); ++i) {
    const ScenarioSpec child_a = mutator.splice(seeds[i], seeds[i + 1], rng_a);
    const ScenarioSpec child_b = mutator.splice(seeds[i], seeds[i + 1], rng_b);
    EXPECT_EQ(text(child_a), text(child_b));
    EXPECT_NO_THROW(check_readable(child_a));
    EXPECT_NO_THROW(engine::validate_scenario(child_a));
  }
}

TEST(FuzzMutator, SanitizeClearsExpectAndSortsSchedules) {
  const Mutator mutator;
  // Triage lives beside the spec, never in it: a mutant of a triaged
  // corpus entry is untriaged by construction.
  ExpectDesc expect;
  ScenarioSpec spec = parse_scenario(
      serialize_scenario(default_scenario(), {"divergence", ""}), &expect);
  ASSERT_FALSE(expect.empty());
  spec.bandwidth_scale.points = {{200, 0.5}, {100, 2.0}, {200, 3.0}};
  mutator.sanitize(spec);
  EXPECT_EQ(text(spec).find("expect"), std::string::npos);
  ASSERT_EQ(spec.bandwidth_scale.points.size(), 2u);
  EXPECT_EQ(spec.bandwidth_scale.points[0].at, 100);
  EXPECT_EQ(spec.bandwidth_scale.points[1].at, 200);
  // Of the duplicate at=200 entries, the later one wins.
  EXPECT_DOUBLE_EQ(spec.bandwidth_scale.points[1].scale, 3.0);
}

TEST(FuzzMutator, SanitizeKeepsStormWindowNonEmpty) {
  // The storm injector requires a non-empty window, so sanitize must keep
  // 0 <= start < end <= steps for any input window.
  const Mutator mutator;
  for (const long steps : {1L, 2L, 400L}) {
    for (const long start : {-50L, 0L, 10L, 399L, 400L, 5000L}) {
      for (const long end : {-60L, 0L, 10L, 11L, 400L, 9000L}) {
        ScenarioSpec spec = default_scenario();
        spec.steps = steps;
        spec.loss.kind = fluid::LossSpec::Kind::kStorm;
        spec.loss.start = start;
        spec.loss.end = end;
        mutator.sanitize(spec);
        EXPECT_LE(0, spec.loss.start) << start << " " << end;
        EXPECT_LT(spec.loss.start, spec.loss.end) << start << " " << end;
        EXPECT_LE(spec.loss.end, spec.steps) << start << " " << end;
        EXPECT_NO_THROW(check_readable(spec)) << start << " " << end;
      }
    }
  }
}

/// True when a sender runs at least one whole step once its window is
/// rounded the way the backends round it (or runs forever).
bool window_at_least_one_step(const SenderSlot& s) {
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
        ScenarioSpec spec = default_scenario();
        spec.steps = steps;
        spec.senders = {sender_slot("reno", 1.0, start, stop)};
        mutator.sanitize(spec);
        const SenderSlot& s = spec.senders.front();
        EXPECT_TRUE(window_at_least_one_step(s))
            << start << " " << stop << " -> " << s.start_step << " "
            << s.stop_step;
        EXPECT_NO_THROW(engine::validate_scenario(spec))
            << start << " " << stop;
      }
    }
  }
}

TEST(FuzzMutator, SeededMutantsPassEngineValidation) {
  // Ten seeded chains of 1000 mutations each: no mutant carries a tail
  // fraction of 1 or a sender window shorter than one step, and every
  // mutant passes the engine's validator.
  const Mutator mutator;
  const std::vector<ScenarioSpec> seeds = Mutator::seed_corpus();
  for (std::uint64_t chain = 0; chain < 10; ++chain) {
    Rng rng(1000 + chain);
    ScenarioSpec current = seeds[chain % seeds.size()];
    for (int i = 0; i < 1000; ++i) {
      current = mutator.mutate(current, rng);
      ASSERT_LT(current.tail_fraction, 1.0) << text(current);
      for (const SenderSlot& s : current.senders) {
        ASSERT_TRUE(window_at_least_one_step(s)) << text(current);
      }
      ASSERT_NO_THROW(engine::validate_scenario(current)) << text(current);
    }
  }
}

TEST(FuzzMutator, SeededMutantsRunOnEitherBackend) {
  // 2000 fixed-seed mutants of the seed corpus (mutations and splices, as
  // the fuzz loop draws them): each passes the engine's validation and its
  // workload expands to at least one sender, so the oracle never spends a
  // finding on a scenario the backends reject before the first step.
  const Mutator mutator;
  const std::vector<ScenarioSpec> seeds = Mutator::seed_corpus();
  Rng rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    const ScenarioSpec& parent = seeds[rng.uniform_index(seeds.size())];
    const ScenarioSpec mutant =
        rng.bernoulli(0.25)
            ? mutator.mutate(
                  mutator.splice(parent,
                                 seeds[rng.uniform_index(seeds.size())], rng),
                  rng)
            : mutator.mutate(parent, rng);
    ASSERT_NO_THROW(engine::validate_scenario(mutant)) << text(mutant);
    ASSERT_FALSE(engine::expand_workload(mutant).empty()) << text(mutant);
  }
}

TEST(FuzzMutator, SanitizeDropsAWorkloadThatExpandsToNothing) {
  // An on-off slot that starts on the last step has no room for an
  // on-period: the expansion would be empty, so the slot runs as written.
  const Mutator mutator;
  ScenarioSpec spec = default_scenario();
  spec.steps = 100;
  spec.senders = {sender_slot("reno", 1.0, 100.0)};
  spec.workload.kind = engine::WorkloadKind::kOnOffHeavyTail;
  spec.workload.flows = 2;
  mutator.sanitize(spec);
  EXPECT_TRUE(spec.workload.empty());
  EXPECT_NO_THROW(engine::validate_scenario(spec));
  EXPECT_FALSE(engine::expand_workload(spec).empty());
}

}  // namespace
}  // namespace axiomcc::fuzz
