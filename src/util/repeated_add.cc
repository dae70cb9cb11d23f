#include "util/repeated_add.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace axiomcc::detail {
namespace {

constexpr std::uint64_t kSignificandMask = (std::uint64_t{1} << 52) - 1;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Biased exponent field; for non-negative doubles equal fields = same binade.
std::uint64_t binade(double v) { return bits(v) >> 52; }

}  // namespace

double repeated_add_jump(double acc, double x, long count) {
  const bool jumpable = x > 0.0 && x <= DBL_MAX;
  while (count > 0) {
    const double a1 = acc + x;
    if (--count == 0) return a1;
    const double a2 = a1 + x;
    if (--count == 0) return a2;
    // a1 + x == a1 (bitwise, or both zeros): every later add is a no-op.
    if (a2 == a1) return a2;
    // The closed form needs both adds inside one positive normal binade:
    // acc -> a1 settles a1's parity, a1 -> a2 measures the step d exactly.
    if (!jumpable || !(acc >= DBL_MIN) || binade(acc) != binade(a2)) {
      acc = a2;
      continue;
    }
    // In units of u the step is an integer and the significand field grows
    // by it per add; jump while every result stays below 2^e.
    const std::uint64_t b = bits(a2);
    const std::uint64_t step = b - bits(a1);
    const std::uint64_t room =
        (kSignificandMask - (b & kSignificandMask)) / step;
    const std::uint64_t k = std::min(room, static_cast<std::uint64_t>(count));
    acc = std::bit_cast<double>(b + k * step);
    count -= static_cast<long>(k);
  }
  return acc;
}

}  // namespace axiomcc::detail
