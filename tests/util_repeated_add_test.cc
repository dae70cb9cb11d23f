// Unit tests for util/repeated_add.h: the closed form must return exactly
// the bits of the plain counted loop, on adversarial rounding cases and on a
// seeded randomized sweep.
#include "util/repeated_add.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace axiomcc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

double plain_loop(double acc, double x, long count) {
  for (long k = 0; k < count; ++k) acc += x;
  return acc;
}

// Spacing of the doubles in the binade holding |v| (v normal).
double ulp(double v) {
  int e = 0;
  std::frexp(v, &e);
  return std::ldexp(1.0, e - 53);
}

::testing::AssertionResult same_bits(double acc, double x, long count) {
  const double want = plain_loop(acc, x, count);
  const double got = repeated_add(acc, x, count);
  if (std::memcmp(&want, &got, sizeof want) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "acc=" << acc << " x=" << x << " count=" << count
         << ": loop=" << want << " closed=" << got;
}

struct Case {
  double acc;
  double x;
  long count;
};

TEST(RepeatedAdd, AdversarialTable) {
  const double one_ulp = ulp(1.0);  // 2^-52
  const double odd = 1.0 + one_ulp;  // odd significand
  const double big = std::ldexp(1.0, 60);
  std::vector<Case> cases = {
      // count 0 / 1 / 2.
      {1.0, 0.5, 0},
      {1.0, 0.5, 1},
      {1.0, 0.5, 2},
      {kNaN, 1.0, 0},
      // Exact ties x = (m + 1/2)·ulp(acc) at even and odd acc.
      {1.0, 0.5 * one_ulp, 1000},
      {odd, 0.5 * one_ulp, 1000},
      {1.0, 1.5 * one_ulp, 100000},
      {odd, 1.5 * one_ulp, 100000},
      {1.0, 2.5 * one_ulp, 100000},
      {odd, 2.5 * one_ulp, 100000},
      {odd, 1000.5 * one_ulp, 1000000},
      {big + ulp(big), 7.5 * ulp(big), 100000},
      // 1/2 ulp plus or minus one ulp of x.
      {1.0, std::nextafter(0.5 * one_ulp, 0.0), 1000},
      {1.0, std::nextafter(0.5 * one_ulp, 1.0), 1000},
      {odd, std::nextafter(0.5 * one_ulp, 0.0), 1000},
      {odd, std::nextafter(1.5 * one_ulp, 1.0), 100000},
      {odd, std::nextafter(1.5 * one_ulp, 0.0), 100000},
      // x far below ulp(acc): every add is a no-op.
      {1.0, 1e-30, 1000000},
      {big, 1.0, 1000000},
      // x at or above acc: binades change almost every add.
      {1.0, 1.0, 5000},
      {1.0, 3.0, 5000},
      {0.1, 1e6, 5000},
      {1e-300, 0.1, 5000},
      // acc = +-0 and the common fold start.
      {0.0, 0.1, 250000},
      {-0.0, 0.1, 1000},
      {0.0, 0.0, 1000},
      {-0.0, 0.0, 1000},
      {-0.0, -0.0, 1000},
      {0.0, -0.0, 1000},
      {1.0, 0.0, 1000},
      {1.0, -0.0, 1000},
      // Subnormal operands.
      {0.0, kDenormMin, 5000},
      {0.0, 1e-310, 5000},
      {DBL_MIN, kDenormMin, 5000},
      {std::nextafter(DBL_MIN, 0.0), kDenormMin, 5000},
      {1e-310, 1e-310, 5000},
      {DBL_MIN, 1e-310, 100000},
      // Binade boundaries: acc just below a power of two.
      {std::nextafter(2.0, 0.0), one_ulp, 1000},
      {std::nextafter(2.0, 0.0), 0.5 * one_ulp, 1000},
      {2.0 - 3 * one_ulp, 1.5 * one_ulp, 1000},
      // The first add lands on an odd significand in the next binade and x
      // is a tie there: the step from that unsettled value differs from
      // every later step, so it must not be the one measured.
      {std::nextafter(2.0, 0.0), 3 * one_ulp, 1000},
      {std::nextafter(1024.0, 0.0), 0.3, 100000},
      {std::ldexp(1.0, 40) - 1.0, 1.0, 100000},
      // Non-finite operands.
      {kNaN, 1.0, 100},
      {1.0, kNaN, 100},
      {kInf, 1.0, 100},
      {-kInf, 1.0, 100},
      {1.0, kInf, 100},
      {1.0, -kInf, 100},
      {kInf, -kInf, 100},
      // Sums that overflow near DBL_MAX.
      {std::ldexp(1.0, 1023), std::ldexp(1.0, 1020), 100},
      {DBL_MAX, ulp(DBL_MAX), 10},
      {DBL_MAX, 0.5 * ulp(DBL_MAX), 10},
      {std::nextafter(DBL_MAX, 0.0), 0.5 * ulp(DBL_MAX), 10},
      {std::ldexp(1.0, 1023), std::ldexp(1.0, 970) * 1.5, 100000},
      // Negative operands take the plain loop.
      {-1.0, 0.1, 1000},
      {1.0, -0.1, 1000},
      {-1.0, -0.1, 1000},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(same_bits(c.acc, c.x, c.count));
  }
}

// A population-sized fold: a million adds of a typical window.
TEST(RepeatedAdd, MillionAddsOfAWindow) {
  EXPECT_TRUE(same_bits(0.0, 13.7, 1000000));
  EXPECT_TRUE(same_bits(1234.5678, 0.1, 1000000));
}

// Draws an operand from one of several shapes that stress rounding.
double draw_acc(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> shape(0, 9);
  std::uniform_real_distribution<double> unit(1.0, 2.0);
  std::uniform_int_distribution<int> exp(-60, 60);
  switch (shape(rng)) {
    case 0:
      return 0.0;
    case 1: {
      // Just below a binade boundary.
      const double top = std::ldexp(1.0, exp(rng));
      double v = top;
      for (int k = std::uniform_int_distribution<int>(1, 64)(rng); k > 0; --k) {
        v = std::nextafter(v, 0.0);
      }
      return v;
    }
    case 2:
      return std::ldexp(unit(rng), std::uniform_int_distribution<int>(
                                       -1074, -1000)(rng));  // tiny/subnormal
    case 3:
      return std::ldexp(unit(rng), std::uniform_int_distribution<int>(
                                       1000, 1023)(rng));  // near DBL_MAX
    case 4:
      return -std::ldexp(unit(rng), exp(rng));
    default:
      return std::ldexp(unit(rng), exp(rng));
  }
}

double draw_x(std::mt19937_64& rng, double acc) {
  std::uniform_int_distribution<int> shape(0, 11);
  std::uniform_real_distribution<double> unit(1.0, 2.0);
  const double u = std::isnormal(acc) ? ulp(acc) : kDenormMin;
  const double m = static_cast<double>(
      std::uniform_int_distribution<int>(0, 4096)(rng));
  switch (shape(rng)) {
    case 0:
      return (m + 0.5) * u;  // exact tie
    case 1:
      return std::nextafter((m + 0.5) * u, 0.0);
    case 2:
      return std::nextafter((m + 0.5) * u, kInf);
    case 3:
      return m * u;  // exact grid multiple
    case 4:
      return u * std::ldexp(unit(rng), -std::uniform_int_distribution<int>(
                                           2, 40)(rng));  // x << ulp
    case 5:
      return std::fabs(acc) * std::ldexp(unit(rng),
                                         std::uniform_int_distribution<int>(
                                             -1, 8)(rng));  // x >= acc
    case 6:
      return std::ldexp(unit(rng), std::uniform_int_distribution<int>(
                                       -1074, -1020)(rng));  // subnormal
    case 7: {
      const int pick = std::uniform_int_distribution<int>(0, 5)(rng);
      const double specials[] = {0.0, -0.0, kNaN, kInf, -kInf, -1.0};
      return specials[pick];
    }
    default:
      return std::fabs(acc) *
             std::ldexp(unit(rng),
                        -std::uniform_int_distribution<int>(1, 52)(rng));
  }
}

TEST(RepeatedAdd, RandomizedMatchesPlainLoopBitwise) {
  std::mt19937_64 rng(20261017);
  std::uniform_int_distribution<int> count_shape(0, 9);
  long mismatches = 0;
  constexpr int kCases = 200000;
  for (int i = 0; i < kCases; ++i) {
    double acc = draw_acc(rng);
    double x = draw_x(rng, acc);
    if (std::uniform_int_distribution<int>(0, 49)(rng) == 0) {
      acc = std::uniform_int_distribution<int>(0, 1)(rng) ? kNaN : kInf;
    }
    long count = 0;
    switch (count_shape(rng)) {
      case 0:
        count = std::uniform_int_distribution<long>(0, 3)(rng);
        break;
      case 1:
        count = std::uniform_int_distribution<long>(1000, 20000)(rng);
        break;
      default:
        count = std::uniform_int_distribution<long>(2, 400)(rng);
    }
    const ::testing::AssertionResult r = same_bits(acc, x, count);
    if (!r) {
      ++mismatches;
      if (mismatches <= 10) ADD_FAILURE() << r.message();
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kCases << " cases";
}

}  // namespace
}  // namespace axiomcc
