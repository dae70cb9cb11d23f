// Pins core's metric scores bit for bit. Each test hashes the bit patterns
// of the scores below and compares the digest against a constant, so a
// change to an estimator that moves any score by one ULP moves a digest:
//   - core::evaluate_protocol for Table 1's six rows, on both backends (all
//     eight metrics, through every post-hoc estimator the evaluator calls);
//   - on one fluid shared-link trace, the estimators evaluate_protocol does
//     not reach: the percentile convergence, Jain's index and the
//     fast-utilization coefficient of one sender's series.
//
// CUBIC and BIN call pow/cbrt, so the Table 1 constants hold for one libm
// (glibc's on x86-64). The shared trace runs AIMD, whose updates use only
// +, -, * and /.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/binomial.h"
#include "cc/cubic.h"
#include "cc/mimd.h"
#include "cc/robust_aimd.h"
#include "core/evaluator.h"
#include "core/extra_metrics.h"
#include "core/metrics.h"

namespace axiomcc::core {
namespace {

/// FNV-1a over the bit patterns of `xs`, as 16 hex digits.
std::string digest(std::initializer_list<double> xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : xs) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

std::string digest(const MetricReport& r) {
  return digest({r.efficiency, r.fast_utilization, r.loss_avoidance,
                 r.fairness, r.convergence, r.robustness, r.tcp_friendliness,
                 r.latency_avoidance});
}

/// Table 1's rows, in exp::build_table1's order.
std::unique_ptr<cc::Protocol> table1_row(int row) {
  switch (row) {
    case 0: return std::make_unique<cc::Aimd>(1.0, 0.5);
    case 1: return std::make_unique<cc::Mimd>(1.01, 0.875);
    case 2: return std::make_unique<cc::Binomial>(1.0, 1.0, 1.0, 0.0);
    case 3: return std::make_unique<cc::Binomial>(1.0, 0.5, 0.5, 0.5);
    case 4: return std::make_unique<cc::Cubic>(0.4, 0.8);
    default: return std::make_unique<cc::RobustAimd>(1.0, 0.8, 0.01);
  }
}

void expect_table1(engine::BackendKind backend, const char* const (&pins)[6]) {
  EvalConfig cfg;
  cfg.backend = backend;
  for (int row = 0; row < 6; ++row) {
    const auto proto = table1_row(row);
    SCOPED_TRACE(proto->name());
    EXPECT_EQ(digest(evaluate_protocol(*proto, cfg)), pins[row]);
  }
}

TEST(CoreScorePins, Table1Fluid) {
  constexpr const char* kPins[6] = {
      "d51a949f3ca4edd3", "098e8fa47ede8442", "c7374480ea4d2d38",
      "b7b01f131a81cb4e", "17f3335890eabd32", "4186f3d0973efe41",
  };
  expect_table1(engine::BackendKind::kFluid, kPins);
}

TEST(CoreScorePins, Table1Packet) {
  constexpr const char* kPins[6] = {
      "98a1ccbd3d43df4a", "e5ec6eb78b4d646e", "e2aa468a7fca26d8",
      "a1078205ac2b0c2b", "6b6ef058ae892c25", "73367561777afcea",
  };
  expect_table1(engine::BackendKind::kPacket, kPins);
}

TEST(CoreScorePins, SharedTraceEstimators) {
  const cc::Aimd proto(1.0, 0.5);
  EvalConfig cfg;
  const fluid::Trace shared = run_shared_link(proto, cfg);
  EstimatorConfig est = cfg.estimator();
  est.outlier_fraction = 0.02;
  EXPECT_EQ(digest({measure_convergence(shared, est)}), "a675f4282e12fa2b");
  EXPECT_EQ(digest({measure_jain_fairness(shared, cfg.estimator())}),
            "8cfcd8291fdff1f9");
  EXPECT_EQ(digest({fast_utilization_coefficient(shared.windows(0), 10)}),
            "8b9daf6bc5411e81");
}

}  // namespace
}  // namespace axiomcc::core
